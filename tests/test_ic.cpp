#include <gtest/gtest.h>

#include <limits>

#include "ic/boundary_node.hpp"
#include "ic/service_worker.hpp"
#include "ic/canister.hpp"
#include "ic/subnet.hpp"

namespace revelio::ic {
namespace {

using crypto::HmacDrbg;

Bytes kv_arg(std::string_view key, std::string_view value = {}) {
  Bytes arg = to_bytes(key);
  if (!value.empty()) {
    arg.push_back(0);
    append(arg, value);
  }
  return arg;
}

// -------------------------------------------------------------- Canisters

TEST(KeyValueCanister, SetGetDelete) {
  KeyValueCanister kv;
  EXPECT_TRUE(kv.update("set", kv_arg("k", "v")).ok());
  auto got = kv.query("get", kv_arg("k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(*got), "v");
  EXPECT_TRUE(kv.update("delete", kv_arg("k")).ok());
  EXPECT_FALSE(kv.query("get", kv_arg("k")).ok());
  EXPECT_FALSE(kv.update("nope", {}).ok());
  EXPECT_FALSE(kv.update("set", kv_arg("")).ok());
}

TEST(KeyValueCanister, StateHashTracksContent) {
  KeyValueCanister a, b;
  EXPECT_EQ(a.state_hash(), b.state_hash());
  ASSERT_TRUE(a.update("set", kv_arg("k", "v")).ok());
  EXPECT_FALSE(a.state_hash() == b.state_hash());
  ASSERT_TRUE(b.update("set", kv_arg("k", "v")).ok());
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

TEST(CounterCanister, IncrementAndAdd) {
  CounterCanister counter;
  ASSERT_TRUE(counter.update("increment", {}).ok());
  Bytes five;
  append_u64be(five, 5);
  ASSERT_TRUE(counter.update("add", five).ok());
  auto got = counter.query("get", {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(read_u64be(*got, 0), 6u);
  EXPECT_FALSE(counter.update("add", Bytes(3)).ok());
}

TEST(AssetCanister, DeployAndServe) {
  AssetCanister assets;
  assets.deploy_asset("/index.html", to_bytes(std::string_view("<html>")),
                      "text/html");
  Bytes arg = to_bytes(std::string_view("/index.html"));
  arg.push_back(0);
  auto got = assets.query("http_request", arg);
  ASSERT_TRUE(got.ok());
  const std::string reply = to_string(*got);
  EXPECT_EQ(reply, std::string("text/html") + '\0' + "<html>");
  EXPECT_FALSE(assets.query("http_request", kv_arg("/missing")).ok());
}

TEST(Canister, CloneIsDeep) {
  KeyValueCanister kv;
  ASSERT_TRUE(kv.update("set", kv_arg("k", "v1")).ok());
  auto copy = kv.clone();
  ASSERT_TRUE(kv.update("set", kv_arg("k", "v2")).ok());
  auto got = copy->query("get", kv_arg("k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(*got), "v1");
}

// ----------------------------------------------------------------- Subnet

struct SubnetFixture : ::testing::Test {
  SubnetFixture()
      : drbg(to_bytes(std::string_view("subnet-tests"))), subnet(1, drbg) {
    subnet.install_canister("kv", KeyValueCanister{});
    subnet.install_canister("counter", CounterCanister{});
  }
  HmacDrbg drbg;
  Subnet subnet;  // f=1 -> 4 replicas, threshold 3
};

TEST_F(SubnetFixture, SizesFollowByzantineFormula) {
  EXPECT_EQ(subnet.replica_count(), 4u);
  EXPECT_EQ(subnet.threshold(), 3u);
}

TEST_F(SubnetFixture, CertifiedUpdateVerifies) {
  auto r = subnet.update("kv", "set", kv_arg("user", "alice"));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(verify_certificate(r->certificate, r->reply,
                                 subnet.public_keys(), subnet.threshold())
                  .ok());
}

TEST_F(SubnetFixture, CertifiedQueryReflectsUpdates) {
  ASSERT_TRUE(subnet.update("counter", "increment", {}).ok());
  ASSERT_TRUE(subnet.update("counter", "increment", {}).ok());
  auto r = subnet.query("counter", "get", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(read_u64be(r->reply, 0), 2u);
  EXPECT_TRUE(verify_certificate(r->certificate, r->reply,
                                 subnet.public_keys(), subnet.threshold())
                  .ok());
}

TEST_F(SubnetFixture, ToleratesOneByzantineReplica) {
  subnet.set_byzantine(2, ByzantineMode::kCorruptExecution);
  auto r = subnet.update("kv", "set", kv_arg("k", "v"));
  ASSERT_TRUE(r.ok()) << "f=1 faults must be masked";
  EXPECT_TRUE(verify_certificate(r->certificate, r->reply,
                                 subnet.public_keys(), subnet.threshold())
                  .ok());
}

TEST_F(SubnetFixture, ToleratesOneSilentReplica) {
  subnet.set_byzantine(0, ByzantineMode::kSilent);
  EXPECT_TRUE(subnet.update("kv", "set", kv_arg("k", "v")).ok());
}

TEST_F(SubnetFixture, TwoByzantineReplicasBreakAgreement) {
  subnet.set_byzantine(0, ByzantineMode::kCorruptExecution);
  subnet.set_byzantine(1, ByzantineMode::kSilent);
  // Corrupt + silent leaves only 2 honest signers of the right value... the
  // corrupt replica still counts in the execution bucket for its own wrong
  // value, honest bucket has 2 < 3.
  auto r = subnet.update("kv", "set", kv_arg("k", "v"));
  // Either agreement fails or certification fails, never a bad certificate.
  if (r.ok()) {
    FAIL() << "update must not certify with 2 faulty replicas out of 4";
  }
}

TEST_F(SubnetFixture, GarbageSignaturesDoNotCount) {
  subnet.set_byzantine(3, ByzantineMode::kSignGarbage);
  auto r = subnet.update("kv", "set", kv_arg("k", "v"));
  if (r.ok()) {
    // If the garbage signer landed in the certificate, verification must
    // still pass only when 3 *valid* signatures exist; check strictly.
    const auto st = verify_certificate(r->certificate, r->reply,
                                       subnet.public_keys(),
                                       subnet.threshold());
    // With 3 honest replicas agreeing, the certificate can carry their 3
    // valid signatures even if the garbage signer was skipped.
    EXPECT_TRUE(st.ok());
  }
}

TEST_F(SubnetFixture, TamperedReplyFailsVerification) {
  auto r = subnet.update("kv", "set", kv_arg("k", "v"));
  ASSERT_TRUE(r.ok());
  Bytes tampered = r->reply;
  tampered.push_back('!');
  EXPECT_FALSE(verify_certificate(r->certificate, tampered,
                                  subnet.public_keys(), subnet.threshold())
                   .ok());
}

TEST_F(SubnetFixture, ForgedCertificateFailsVerification) {
  auto r = subnet.update("kv", "set", kv_arg("k", "v"));
  ASSERT_TRUE(r.ok());
  Certificate forged = r->certificate;
  forged.response_hash = crypto::sha256(to_bytes(std::string_view("lie")));
  EXPECT_FALSE(verify_certificate(forged, to_bytes(std::string_view("lie")),
                                  subnet.public_keys(), subnet.threshold())
                   .ok());
}

TEST_F(SubnetFixture, DuplicateSignerRejected) {
  auto r = subnet.update("kv", "set", kv_arg("k", "v"));
  ASSERT_TRUE(r.ok());
  Certificate padded = r->certificate;
  padded.signatures.push_back(padded.signatures[0]);
  const auto st = verify_certificate(padded, r->reply, subnet.public_keys(),
                                     subnet.threshold());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "ic.duplicate_signer");
}

TEST_F(SubnetFixture, CertificateSerializationRoundTrip) {
  auto r = subnet.update("kv", "set", kv_arg("k", "v"));
  ASSERT_TRUE(r.ok());
  auto parsed = Certificate::parse(r->certificate.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(verify_certificate(*parsed, r->reply, subnet.public_keys(),
                                 subnet.threshold())
                  .ok());
  EXPECT_FALSE(Certificate::parse(to_bytes(std::string_view("junk"))).ok());
}

TEST_F(SubnetFixture, UnknownCanisterFails) {
  EXPECT_FALSE(subnet.update("ghost", "set", kv_arg("k", "v")).ok());
}

// ----------------------------------------------------------- BoundaryNode

struct BnFixture : SubnetFixture {
  BnFixture() : bn(subnet) {
    AssetCanister assets;
    assets.deploy_asset("/index.html",
                        to_bytes(std::string_view("<html>dapp</html>")),
                        "text/html");
    subnet.install_canister("frontend", assets);
  }

  net::HttpRequest get(const std::string& path) {
    net::HttpRequest req;
    req.method = "GET";
    req.path = path;
    return req;
  }

  BoundaryNode bn;
};

TEST_F(BnFixture, ServesServiceWorker) {
  auto resp = bn.handle(get("/sw.js"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, BoundaryNode::reference_service_worker());
}

TEST_F(BnFixture, TranslatesUpdateAndQuery) {
  net::HttpRequest post;
  post.method = "POST";
  post.path = "/api/kv/update/set";
  post.body = kv_arg("greeting", "hello");
  auto update_resp = bn.handle(post);
  EXPECT_EQ(update_resp.status, 200);
  EXPECT_TRUE(verify_bn_response(update_resp, subnet.public_keys(),
                                 subnet.threshold())
                  .ok());

  net::HttpRequest query = get("/api/kv/query/get");
  query.body = kv_arg("greeting");
  auto query_resp = bn.handle(query);
  EXPECT_EQ(query_resp.status, 200);
  EXPECT_EQ(to_string(query_resp.body), "hello");
  EXPECT_TRUE(verify_bn_response(query_resp, subnet.public_keys(),
                                 subnet.threshold())
                  .ok());
}

TEST_F(BnFixture, ServesCertifiedAssets) {
  auto resp = bn.handle(get("/assets/frontend/index.html"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(to_string(resp.body), "<html>dapp</html>");
  EXPECT_EQ(resp.headers.at("content-type"), "text/html");
  EXPECT_TRUE(
      verify_bn_response(resp, subnet.public_keys(), subnet.threshold()).ok());
}

TEST_F(BnFixture, TamperingBoundaryNodeIsDetected) {
  bn.set_tamper_mode(BnTamperMode::kTamperResponses);
  net::HttpRequest query = get("/api/counter/query/get");
  auto resp = bn.handle(query);
  EXPECT_EQ(resp.status, 200);
  const auto st =
      verify_bn_response(resp, subnet.public_keys(), subnet.threshold());
  ASSERT_FALSE(st.ok()) << "certificate check must expose BN tampering";
}

TEST_F(BnFixture, StrippedCertificateIsDetected) {
  bn.set_tamper_mode(BnTamperMode::kStripCertificates);
  auto resp = bn.handle(get("/assets/frontend/index.html"));
  const auto st =
      verify_bn_response(resp, subnet.public_keys(), subnet.threshold());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "ic.missing_certificate");
}

TEST_F(BnFixture, DoctoredServiceWorkerDiffersFromReference) {
  bn.set_tamper_mode(BnTamperMode::kServeDoctoredWorker);
  auto resp = bn.handle(get("/sw.js"));
  EXPECT_NE(resp.body, BoundaryNode::reference_service_worker())
      << "the doctored worker is byte-detectable (and Revelio-attestable)";
}

// ---------------------------------------------------------- ServiceWorker

TEST_F(BnFixture, ServiceWorkerInstallsFromHonestBn) {
  auto resp = bn.handle(get("/sw.js"));
  auto worker = ServiceWorkerClient::install(
      resp.body, ServiceWorkerClient::reference_digest(),
      subnet.public_keys(), subnet.threshold());
  ASSERT_TRUE(worker.ok());
}

TEST_F(BnFixture, DoctoredWorkerRefusedAtInstall) {
  bn.set_tamper_mode(BnTamperMode::kServeDoctoredWorker);
  auto resp = bn.handle(get("/sw.js"));
  auto worker = ServiceWorkerClient::install(
      resp.body, ServiceWorkerClient::reference_digest(),
      subnet.public_keys(), subnet.threshold());
  ASSERT_FALSE(worker.ok());
  EXPECT_EQ(worker.error().code, "sw.digest_mismatch");
}

TEST_F(BnFixture, WorkerPassesHonestTrafficBlocksTampered) {
  auto install_resp = bn.handle(get("/sw.js"));
  auto worker = ServiceWorkerClient::install(
      install_resp.body, ServiceWorkerClient::reference_digest(),
      subnet.public_keys(), subnet.threshold());
  ASSERT_TRUE(worker.ok());

  net::HttpRequest query = get("/api/counter/query/get");
  auto honest = worker->process(bn.handle(query));
  ASSERT_TRUE(honest.ok());
  EXPECT_EQ(worker->verified_count(), 1u);

  bn.set_tamper_mode(BnTamperMode::kTamperResponses);
  auto tampered = worker->process(bn.handle(query));
  ASSERT_FALSE(tampered.ok());
  EXPECT_EQ(worker->rejected_count(), 1u);

  bn.set_tamper_mode(BnTamperMode::kStripCertificates);
  EXPECT_FALSE(worker->process(bn.handle(query)).ok());
  EXPECT_EQ(worker->rejected_count(), 2u);
}

// ---------------------------------------------------------- BnFleetClient

struct BnFleetFixture : BnFixture {
  BnFleetFixture() : network(clock), bn2(subnet) {
    listen("bn1.ic.example", bn, bn1_handled);
    listen("bn2.ic.example", bn2, bn2_handled);
  }

  void listen(const std::string& host, BoundaryNode& node, int& counter) {
    network.listen({host, 443},
                   [&node, &counter](ByteView raw, const net::Address&) {
                     ++counter;
                     auto req = net::HttpRequest::parse(raw);
                     if (!req.ok()) {
                       return net::HttpResponse::error(400, "bad frame")
                           .serialize();
                     }
                     return node.handle(*req).serialize();
                   });
  }

  ServiceWorkerClient make_worker() {
    auto resp = bn.handle(get("/sw.js"));
    auto worker = ServiceWorkerClient::install(
        resp.body, ServiceWorkerClient::reference_digest(),
        subnet.public_keys(), subnet.threshold());
    EXPECT_TRUE(worker.ok());
    return *worker;
  }

  BnFleetClient make_client() {
    BnFleetClient::Config config;
    config.retry.max_attempts = 2;
    config.retry.jitter = 0.0;
    return BnFleetClient(network, {"laptop", 40000},
                         {{"bn1.ic.example", 443}, {"bn2.ic.example", 443}},
                         make_worker(), config);
  }

  SimClock clock;
  net::Network network;
  BoundaryNode bn2;
  int bn1_handled = 0;
  int bn2_handled = 0;
};

TEST_F(BnFleetFixture, CallVerifiesThroughPrimary) {
  auto client = make_client();
  auto resp = client.get("/api/counter/query/get");
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(client.worker().verified_count(), 1u);
  EXPECT_EQ(bn1_handled, 1);
  EXPECT_EQ(bn2_handled, 0);
}

TEST_F(BnFleetFixture, FailsOverWhenPrimaryIsBlackholed) {
  net::FaultPlan plan(to_bytes(std::string_view("bn-hole")));
  plan.blackhole("bn1.ic.example", 0,
                 std::numeric_limits<SimClock::Micros>::max());
  network.set_fault_plan(std::move(plan));
  auto client = make_client();
  auto resp = client.get("/api/counter/query/get");
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(bn1_handled, 0);
  EXPECT_EQ(bn2_handled, 1) << "the backup replica served the call";
  EXPECT_EQ(client.worker().verified_count(), 1u)
      << "failed-over responses still pass threshold verification";
}

TEST_F(BnFleetFixture, TamperedResponseNeverFailsOver) {
  bn.set_tamper_mode(BnTamperMode::kTamperResponses);
  auto client = make_client();
  auto resp = client.get("/api/counter/query/get");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, "sw.verification_failed");
  EXPECT_EQ(bn1_handled, 1);
  EXPECT_EQ(bn2_handled, 0)
      << "a tampered certificate is an attack verdict, not an outage: the "
         "client must not mask it by asking another replica";
  EXPECT_EQ(client.worker().rejected_count(), 1u);
}

TEST_F(BnFixture, UnknownRoutesAre404) {
  EXPECT_EQ(bn.handle(get("/nope")).status, 404);
  EXPECT_EQ(bn.handle(get("/api/kv/bad")).status, 404);
  net::HttpRequest wrong_verb = get("/api/kv/update/set");
  EXPECT_EQ(bn.handle(wrong_verb).status, 405);
}

}  // namespace
}  // namespace revelio::ic
