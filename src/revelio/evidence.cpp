#include "revelio/evidence.hpp"

namespace revelio::core {

sevsnp::ReportData EvidenceBundle::bind(ByteView payload) {
  const crypto::Digest32 digest = crypto::sha256(payload);
  sevsnp::ReportData rd;
  std::copy(digest.begin(), digest.end(), rd.begin());
  return rd;
}

bool EvidenceBundle::binding_ok() const {
  return report.report_data == bind(payload);
}

Bytes EvidenceBundle::serialize() const {
  Bytes out;
  append(out, std::string_view("REVB1"));
  const Bytes report_bytes = report.serialize();
  append_u32be(out, static_cast<std::uint32_t>(report_bytes.size()));
  append(out, report_bytes);
  append_u32be(out, static_cast<std::uint32_t>(payload.size()));
  append(out, payload);
  return out;
}

Result<EvidenceBundle> EvidenceBundle::parse(ByteView data) {
  if (data.size() < 5 || to_string(data.subspan(0, 5)) != "REVB1") {
    return Error::make("revelio.bad_evidence_bundle");
  }
  std::size_t off = 5;
  if (off + 4 > data.size()) return Error::make("revelio.bad_evidence_bundle");
  const std::uint32_t report_len = read_u32be(data, off);
  off += 4;
  if (off + report_len + 4 > data.size()) {
    return Error::make("revelio.bad_evidence_bundle");
  }
  EvidenceBundle bundle;
  auto report = sevsnp::AttestationReport::parse(data.subspan(off, report_len));
  if (!report.ok()) return report.error();
  bundle.report = std::move(*report);
  off += report_len;
  const std::uint32_t payload_len = read_u32be(data, off);
  off += 4;
  // Exact end: a bundle has one encoding, so trailing bytes are refused.
  if (off + payload_len != data.size()) {
    return Error::make("revelio.bad_evidence_bundle");
  }
  bundle.payload = to_bytes(data.subspan(off, payload_len));
  return bundle;
}

KdsService::KdsService(sevsnp::KeyDistributionServer& kds,
                       net::Network& network, net::Address address)
    : kds_(&kds), address_(std::move(address)) {
  network.listen(address_, [this](ByteView request, const net::Address&) {
    return handle(request);
  });
}

Bytes KdsService::handle(ByteView request) {
  // Request: chip_id(64) | tcb(8). Response: "OK" + 3 length-prefixed certs
  // or "ER" + message.
  auto fail = [](const std::string& message) {
    Bytes out = to_bytes(std::string_view("ER"));
    append(out, message);
    return out;
  };
  if (request.size() != 64 + 8) return fail("bad request size");
  const sevsnp::ChipId chip_id = sevsnp::ChipId::from(request.subspan(0, 64));
  const sevsnp::TcbVersion tcb =
      sevsnp::TcbVersion::decode(read_u64be(request, 64));
  auto vcek = kds_->fetch_vcek(chip_id, tcb);
  if (!vcek.ok()) return fail(vcek.error().to_string());

  Bytes out = to_bytes(std::string_view("OK"));
  const pki::Certificate* certs[] = {&*vcek, &kds_->ask_certificate(),
                                     &kds_->ark_certificate()};
  for (const pki::Certificate* cert : certs) {
    const Bytes bytes = cert->serialize();
    append_u32be(out, static_cast<std::uint32_t>(bytes.size()));
    append(out, bytes);
  }
  return out;
}

Result<KdsService::VcekResponse> KdsService::fetch(
    net::Network& network, const net::Address& from,
    const net::Address& kds_address, const sevsnp::ChipId& chip_id,
    sevsnp::TcbVersion tcb) {
  Bytes request = chip_id.bytes();
  append_u64be(request, tcb.encode());
  auto response = network.call(from, kds_address, request);
  if (!response.ok()) return response.error();
  const ByteView data = *response;
  if (data.size() < 2) return Error::make("kds.bad_response");
  if (to_string(data.subspan(0, 2)) == "ER") {
    return Error::make("kds.error", to_string(data.subspan(2)));
  }
  std::size_t off = 2;
  std::vector<pki::Certificate> certs;
  for (int i = 0; i < 3; ++i) {
    if (off + 4 > data.size()) return Error::make("kds.bad_response");
    const std::uint32_t len = read_u32be(data, off);
    off += 4;
    if (off + len > data.size()) return Error::make("kds.bad_response");
    auto cert = pki::Certificate::parse(data.subspan(off, len));
    if (!cert.ok()) return cert.error();
    certs.push_back(std::move(*cert));
    off += len;
  }
  return VcekResponse{std::move(certs[0]), std::move(certs[1]),
                      std::move(certs[2])};
}

}  // namespace revelio::core
