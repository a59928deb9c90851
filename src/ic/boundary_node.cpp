#include "ic/boundary_node.hpp"

#include "common/hex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::ic {

namespace {

/// Splits "/api/{canister}/{kind}/{method}" -> (canister, kind, method).
struct ApiPath {
  std::string canister;
  std::string kind;
  std::string method;
};

std::optional<ApiPath> parse_api_path(const std::string& path) {
  if (path.rfind("/api/", 0) != 0) return std::nullopt;
  const std::string rest = path.substr(5);
  const auto slash1 = rest.find('/');
  if (slash1 == std::string::npos) return std::nullopt;
  const auto slash2 = rest.find('/', slash1 + 1);
  if (slash2 == std::string::npos) return std::nullopt;
  ApiPath out;
  out.canister = rest.substr(0, slash1);
  out.kind = rest.substr(slash1 + 1, slash2 - slash1 - 1);
  out.method = rest.substr(slash2 + 1);
  if (out.canister.empty() || out.method.empty()) return std::nullopt;
  return out;
}

}  // namespace

Bytes BoundaryNode::reference_service_worker() {
  // A behavioural description of the worker, not real JS: the bytes stand
  // in for the script the browser would execute, and — like every blob in
  // this simulation — the bytes *are* the behaviour, so pinning/measuring
  // them pins the behaviour.
  return to_bytes(std::string_view(
      "// ic-service-worker v1\n"
      "// intercepts fetch(), transforms to IC calls, verifies the\n"
      "// ic-certificate header against the pinned subnet keys, rejects\n"
      "// responses whose certificate is missing or invalid\n"
      "verify_certificates=true\n"));
}

net::HttpResponse BoundaryNode::certified_to_http(
    Result<CertifiedResponse> result) {
  if (!result.ok()) {
    return net::HttpResponse::error(502, result.error().to_string());
  }
  net::HttpResponse response =
      net::HttpResponse::ok(result->reply, "application/octet-stream");
  if (tamper_ == BnTamperMode::kTamperResponses && !response.body.empty()) {
    response.body[0] ^= 0x01;
  }
  if (tamper_ != BnTamperMode::kStripCertificates) {
    response.headers["ic-certificate"] =
        to_hex(result->certificate.serialize());
  }
  return response;
}

net::HttpResponse BoundaryNode::handle(const net::HttpRequest& request) {
  obs::Span span("bn.request");
  span.attr("method", request.method);
  span.attr("path", request.path);
  std::string route = "other";
  net::HttpResponse response = handle_routed(request, route);
  span.attr("route", route);
  span.attr("status", static_cast<std::uint64_t>(response.status));
  obs::metrics()
      .counter("bn.request.count",
               {{"status", std::to_string(response.status)}})
      .inc();
  return response;
}

net::HttpResponse BoundaryNode::handle_routed(const net::HttpRequest& request,
                                              std::string& route) {
  if (request.method == "GET" && request.path == "/sw.js") {
    route = "sw";
    Bytes worker = reference_service_worker();
    if (tamper_ == BnTamperMode::kServeDoctoredWorker) {
      worker = to_bytes(std::string_view(
          "// ic-service-worker v1 (doctored)\n"
          "verify_certificates=false\n"));
    }
    return net::HttpResponse::ok(std::move(worker), "text/javascript");
  }

  if (const auto api = parse_api_path(request.path)) {
    route = "api";
    if (api->kind == "query" && request.method == "GET") {
      return certified_to_http(
          subnet_->query(api->canister, api->method, request.body));
    }
    if (api->kind == "update" && request.method == "POST") {
      return certified_to_http(
          subnet_->update(api->canister, api->method, request.body));
    }
    return net::HttpResponse::error(405, "unsupported api call");
  }

  if (request.method == "GET" && request.path.rfind("/assets/", 0) == 0) {
    route = "assets";
    // /assets/{canister}/{path...}
    const std::string rest = request.path.substr(8);
    const auto slash = rest.find('/');
    if (slash == std::string::npos) {
      return net::HttpResponse::error(400, "missing asset path");
    }
    const std::string canister = rest.substr(0, slash);
    const std::string asset_path = rest.substr(slash);
    Bytes arg = to_bytes(asset_path);
    arg.push_back(0);
    auto result = subnet_->query(canister, "http_request", arg);
    if (!result.ok()) {
      return net::HttpResponse::error(404, result.error().to_string());
    }
    // Reply layout: content_type \0 body.
    const ByteView reply = result->reply;
    std::size_t nul = 0;
    while (nul < reply.size() && reply[nul] != 0) ++nul;
    net::HttpResponse response = net::HttpResponse::ok(
        to_bytes(reply.subspan(std::min(nul + 1, reply.size()))),
        to_string(reply.subspan(0, nul)));
    if (tamper_ == BnTamperMode::kTamperResponses && !response.body.empty()) {
      response.body[0] ^= 0x01;
    }
    if (tamper_ != BnTamperMode::kStripCertificates) {
      response.headers["ic-certificate"] =
          to_hex(result->certificate.serialize());
    }
    return response;
  }

  return net::HttpResponse::not_found();
}

Status verify_bn_response(const net::HttpResponse& response,
                          const std::map<ReplicaId, Bytes>& subnet_keys,
                          std::uint32_t threshold) {
  const auto it = response.headers.find("ic-certificate");
  if (it == response.headers.end()) {
    return Error::make("ic.missing_certificate",
                       "boundary node returned no certificate");
  }
  const auto cert_bytes = from_hex(it->second);
  if (!cert_bytes) return Error::make("ic.bad_certificate", "hex");
  auto cert = Certificate::parse(*cert_bytes);
  if (!cert.ok()) return cert.error();
  // For asset responses the certified reply is content_type \0 body; for
  // API responses it is the body itself. Try both bindings.
  if (verify_certificate(*cert, response.body, subnet_keys, threshold).ok()) {
    return Status::success();
  }
  const auto ct = response.headers.find("content-type");
  if (ct != response.headers.end()) {
    Bytes reconstructed = to_bytes(ct->second);
    reconstructed.push_back(0);
    append(reconstructed, response.body);
    return verify_certificate(*cert, reconstructed, subnet_keys, threshold);
  }
  return Error::make("ic.reply_mismatch");
}

}  // namespace revelio::ic
