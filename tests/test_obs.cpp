#include <gtest/gtest.h>

#include "common/sim_clock.hpp"
#include "crypto/ecdsa.hpp"
#include "imagebuild/builder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pki/ca.hpp"
#include "pki/chain_cache.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"
#include "storage/dm_crypt.hpp"
#include "storage/dm_verity.hpp"
#include "storage/mem_disk.hpp"

namespace revelio {
namespace {

/// The tracer is process-wide; every test that enables it restores the
/// defaults on exit so tests stay order-independent.
struct TracerGuard {
  TracerGuard() {
    obs::tracer().clear();
    obs::tracer().set_enabled(true);
  }
  ~TracerGuard() {
    obs::tracer().set_enabled(false);
    obs::tracer().set_real_clock(nullptr);
    obs::tracer().clear();
  }
};

const obs::SpanRecord* find_span(const std::string& name) {
  for (const auto& span : obs::tracer().finished_spans()) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

const obs::SpanRecord* find_span_by_id(std::uint64_t id) {
  for (const auto& span : obs::tracer().finished_spans()) {
    if (span.id == id) return &span;
  }
  return nullptr;
}

/// Name of the parent span, or "" for roots / missing parents.
std::string parent_name(const obs::SpanRecord& span) {
  if (span.parent_id == 0) return {};
  const auto* parent = find_span_by_id(span.parent_id);
  return parent == nullptr ? std::string{} : parent->name;
}

// --------------------------------------------------------------- tracing

TEST(Trace, NestingOrderingAndAttrs) {
  TracerGuard guard;
  {
    obs::Span root("root");
    root.attr("who", "outer");
    {
      obs::Span child("child");
      child.attr("n", std::uint64_t{7});
      obs::Span grandchild("grandchild");
    }
    obs::Span sibling("sibling");
  }
  // Completion order: children precede their parents.
  const auto& spans = obs::tracer().finished_spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "grandchild");
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[3].name, "root");
  // Parent links reconstruct the tree.
  EXPECT_EQ(parent_name(spans[0]), "child");
  EXPECT_EQ(parent_name(spans[1]), "root");
  EXPECT_EQ(parent_name(spans[2]), "root");
  EXPECT_EQ(spans[3].parent_id, 0u);
  // Attributes stick to the right span.
  EXPECT_EQ(spans[3].attr("who"), "outer");
  EXPECT_EQ(spans[1].attr("n"), "7");
  EXPECT_EQ(spans[0].attr("n"), "");
  EXPECT_EQ(obs::tracer().open_spans(), 0u);
}

TEST(Trace, DisabledSpansCostNothing) {
  obs::tracer().clear();
  obs::tracer().set_enabled(false);
  obs::Span span("invisible");
  span.attr("k", "v");
  EXPECT_EQ(span.id(), 0u);
  span.end();
  EXPECT_TRUE(obs::tracer().finished_spans().empty());
}

TEST(Trace, VirtualAndRealDurations) {
  TracerGuard guard;
  SimClock clock;  // registers as SimClock::current()
  // Deterministic fake real clock: +500 ns per query.
  std::uint64_t fake_ns = 0;
  obs::tracer().set_real_clock([&fake_ns] { return fake_ns += 500; });

  obs::Span root("root");
  clock.advance_us(10);
  obs::Span child("child");
  clock.advance_us(5);
  child.end();
  root.end();

  const auto* child_rec = find_span("child");
  const auto* root_rec = find_span("root");
  ASSERT_NE(child_rec, nullptr);
  ASSERT_NE(root_rec, nullptr);
  EXPECT_EQ(root_rec->virt_start_us, 0u);
  EXPECT_EQ(root_rec->virt_us(), 15u);
  EXPECT_EQ(child_rec->virt_start_us, 10u);
  EXPECT_EQ(child_rec->virt_us(), 5u);
  // Clock queries: root begin (500), child begin (1000), child end (1500),
  // root end (2000).
  EXPECT_DOUBLE_EQ(child_rec->real_us(), 0.5);
  EXPECT_DOUBLE_EQ(root_rec->real_us(), 1.5);
}

TEST(Trace, FinishedSpanRecordsGolden) {
  TracerGuard guard;
  SimClock clock;
  std::uint64_t fake_ns = 0;
  obs::tracer().set_real_clock([&fake_ns] { return fake_ns += 500; });

  obs::Span root("root");
  clock.advance_us(10);
  obs::Span child("child");
  child.attr("k", "v");
  clock.advance_us(5);
  child.end();
  root.end();

  // Completion order, every field a trace consumer reads.
  const auto& spans = obs::tracer().finished_spans();
  ASSERT_EQ(spans.size(), 2u);
  const obs::SpanRecord& c = spans[0];
  EXPECT_EQ(c.id, 2u);
  EXPECT_EQ(c.parent_id, 1u);
  EXPECT_EQ(c.name, "child");
  EXPECT_EQ(c.virt_start_us, 10u);
  EXPECT_EQ(c.virt_us(), 5u);
  EXPECT_DOUBLE_EQ(c.real_us(), 0.5);
  EXPECT_EQ(c.attrs, (std::vector<std::pair<std::string, std::string>>{
                         {"k", "v"}}));
  const obs::SpanRecord& r = spans[1];
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.parent_id, 0u);
  EXPECT_EQ(r.name, "root");
  EXPECT_EQ(r.virt_start_us, 0u);
  EXPECT_EQ(r.virt_us(), 15u);
  EXPECT_DOUBLE_EQ(r.real_us(), 1.5);
  EXPECT_TRUE(r.attrs.empty());
}

TEST(Trace, ChromeTraceFormat) {
  TracerGuard guard;
  SimClock clock;
  std::uint64_t fake_ns = 1000000;
  obs::tracer().set_real_clock([&fake_ns] { return fake_ns += 1000; });
  {
    obs::Span span("work");
    clock.advance_us(3);
  }
  const std::string trace = obs::tracer().chrome_trace_json();
  // Two thread_name metadata events + one complete event per clock.
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"virtual clock (sim)\""), std::string::npos);
  EXPECT_NE(trace.find("\"real clock (wall)\""), std::string::npos);
  // Virtual row: tid 1, µs straight off the sim clock.
  EXPECT_NE(trace.find("\"name\":\"work\",\"cat\":\"virt\",\"ph\":\"X\","
                       "\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":3"),
            std::string::npos);
  // Real row: tid 2, rebased to the earliest span -> ts 0, dur 1 µs.
  EXPECT_NE(trace.find("\"name\":\"work\",\"cat\":\"real\",\"ph\":\"X\","
                       "\"pid\":1,\"tid\":2,\"ts\":0,\"dur\":1"),
            std::string::npos);
}

TEST(Trace, BoundedHistoryDropsOldest) {
  TracerGuard guard;
  for (std::size_t i = 0; i <= obs::Tracer::kMaxFinishedSpans; ++i) {
    obs::Span span("span-" + std::to_string(i));
  }
  EXPECT_EQ(obs::tracer().finished_spans().size(),
            obs::Tracer::kMaxFinishedSpans);
  EXPECT_EQ(obs::tracer().dropped_spans(), 1u);
  EXPECT_EQ(obs::tracer().finished_spans().front().name, "span-1");
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterSaturatesInsteadOfWrapping) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("x.count");
  c.inc(UINT64_MAX - 1);
  c.inc();  // exactly at the ceiling
  EXPECT_EQ(c.value(), UINT64_MAX);
  c.inc(42);  // would wrap; must pin
  EXPECT_EQ(c.value(), UINT64_MAX);
}

TEST(Metrics, LabelsRenderPrometheusStyle) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(obs::MetricsRegistry::render_key("n", {}), "n");
  EXPECT_EQ(obs::MetricsRegistry::render_key(
                "tls.handshake.fail.count",
                {{"reason", "pki.expired"}, {"server", "x"}}),
            "tls.handshake.fail.count{reason=pki.expired,server=x}");
  reg.counter("c", {{"r", "ok"}}).inc();
  reg.counter("c", {{"r", "bad"}}).inc(3);
  EXPECT_EQ(reg.counter_value("c", {{"r", "ok"}}), 1u);
  EXPECT_EQ(reg.counter_value("c", {{"r", "bad"}}), 3u);
  EXPECT_EQ(reg.counter_value("c"), 0u);          // unlabeled is distinct
  EXPECT_EQ(reg.counter_value("missing"), 0u);    // absent reads as zero
}

TEST(Metrics, RegistryJsonGolden) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(2);
  reg.counter("b.count", {{"r", "ok"}}).inc();
  reg.gauge("g").set(1.5);
  auto& s = reg.summary("s");
  s.observe(0.5);
  s.observe(3.0);
  // p50 is the midpoint of 0.5's log bucket [0.5, 0.515625); the upper
  // quantiles clamp to the exact max.
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"a.count\":2,\"b.count{r=ok}\":1},"
            "\"gauges\":{\"g\":1.5},"
            "\"summaries\":{\"s\":{\"count\":2,\"sum\":3.5,\"min\":0.5,"
            "\"max\":3,\"p50\":0.507812,\"p90\":3,\"p99\":3,\"p999\":3}}}");
}

TEST(Metrics, JsonEscaping) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(3.0), "3");
  EXPECT_EQ(obs::json_number(1e14), "100000000000000");
}

// ----------------------------------------------- chain cache -> registry

TEST(Metrics, ChainCacheReportsToRegistry) {
  crypto::HmacDrbg drbg(to_bytes(std::string_view("obs-chain-cache")));
  constexpr std::uint64_t kYearUs = 365ull * 24 * 3600 * 1000 * 1000;
  auto root = pki::CertificateAuthority::create_root(
      crypto::p384(), {"Root", "Obs", "US"}, 0, kYearUs, drbg);
  auto inter = pki::CertificateAuthority::create_intermediate(
      crypto::p384(), {"Inter", "Obs", "US"}, 0, kYearUs, root, drbg);
  const auto leaf_key = crypto::ec_generate(crypto::p384(), drbg);
  const pki::Certificate leaf = inter.issue_for_key(
      "P-384", leaf_key.public_encoded(crypto::p384()), {"Leaf", "Obs", "US"},
      {}, 0, kYearUs);

  auto& m = obs::metrics();
  const auto hits0 = m.counter_value("pki.chain_cache.hit.count");
  const auto misses0 = m.counter_value("pki.chain_cache.miss.count");
  const auto expiry0 = m.counter_value("pki.chain_cache.expiry.count");
  const auto ok0 =
      m.counter_value("pki.chain_verify.result.count", {{"result", "ok"}});

  pki::ChainVerificationCache cache;
  pki::ChainVerifyOptions options;
  options.now_us = 1000;
  EXPECT_TRUE(cache
                  .verify(leaf, {inter.certificate()}, {root.certificate()},
                          options)
                  .ok());  // miss + full verify
  EXPECT_TRUE(cache
                  .verify(leaf, {inter.certificate()}, {root.certificate()},
                          options)
                  .ok());  // hit
  options.now_us = 2 * kYearUs;  // outside every validity window
  EXPECT_FALSE(cache
                   .verify(leaf, {inter.certificate()}, {root.certificate()},
                           options)
                   .ok());  // expiry, then failed re-verify (not cached)

  EXPECT_EQ(m.counter_value("pki.chain_cache.hit.count"), hits0 + 1);
  EXPECT_EQ(m.counter_value("pki.chain_cache.miss.count"), misses0 + 2);
  EXPECT_EQ(m.counter_value("pki.chain_cache.expiry.count"), expiry0 + 1);
  EXPECT_EQ(
      m.counter_value("pki.chain_verify.result.count", {{"result", "ok"}}),
      ok0 + 1);
  // Per-instance stats agree with the process-wide counters.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.window_rejects, 1u);
}

TEST(Metrics, HotPathsCountExactlyAndReadNoClock) {
  // The per-block and per-signature paths bump counters bound once; each
  // must rise by exactly the number of calls, and none of them may leave a
  // wall-clock summary behind.
  constexpr std::uint64_t kBlocks = 24;
  constexpr std::size_t kSigs = 5;
  auto& m = obs::metrics();
  const auto count = [&m](const char* name) { return m.counter_value(name); };
  const auto verity0 = count("storage.verity_read.block.count");
  const auto crypt_read0 = count("storage.crypt_read.block.count");
  const auto crypt_write0 = count("storage.crypt_write.block.count");
  const auto sign0 = count("crypto.ecdsa_sign.count");
  const auto verify0 = count("crypto.ecdsa_verify.count");
  const auto batch0 = count("crypto.ecdsa_verify_batch.count");
  const auto batch_sigs0 = count("crypto.ecdsa_verify_batch.sigs");
  const auto fallback0 = count("crypto.ecdsa_verify_batch.fallback.count");

  auto data = std::make_shared<storage::MemDisk>(4096, kBlocks);
  auto hash = std::make_shared<storage::MemDisk>(4096, kBlocks);
  Bytes block(4096);
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    block.assign(4096, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(data->write_block(i, block).ok());
  }
  auto meta = storage::Verity::format(*data, *hash);
  ASSERT_TRUE(meta.ok());
  auto verity = storage::Verity::open(data, hash, meta->root_hash);
  ASSERT_TRUE(verity.ok());
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE((*verity)->read_block(i, block).ok());
  }
  EXPECT_EQ(count("storage.verity_read.block.count"), verity0 + kBlocks);
  ASSERT_TRUE((*verity)->verify_all().ok());
  EXPECT_EQ(count("storage.verity_read.block.count"), verity0 + 2 * kBlocks);

  crypto::HmacDrbg drbg(to_bytes(std::string_view("obs-hot-paths")));
  auto crypt = storage::CryptVolume::format(
      std::make_shared<storage::MemDisk>(4096, kBlocks + 1), drbg.generate(32),
      drbg.generate(32));
  ASSERT_TRUE(crypt.ok());
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    block.assign(4096, static_cast<std::uint8_t>(i ^ 0x5a));
    ASSERT_TRUE((*crypt)->write_block(i, block).ok());
  }
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE((*crypt)->read_block(i, block).ok());
    EXPECT_EQ(block[0], static_cast<std::uint8_t>(i ^ 0x5a));
  }
  EXPECT_EQ(count("storage.crypt_write.block.count"), crypt_write0 + kBlocks);
  EXPECT_EQ(count("storage.crypt_read.block.count"), crypt_read0 + kBlocks);

  const crypto::Curve& curve = crypto::p256();
  std::vector<crypto::EcdsaBatchItem> items(kSigs);
  for (std::size_t i = 0; i < kSigs; ++i) {
    const auto kp = crypto::ec_generate(curve, drbg);
    items[i].pub = kp.q;
    items[i].msg_hash = drbg.generate(32);
    items[i].sig = crypto::ecdsa_sign(curve, kp.d, items[i].msg_hash);
  }
  for (const auto& item : items) {
    EXPECT_TRUE(crypto::ecdsa_verify(curve, item.pub, item.msg_hash, item.sig));
  }
  EXPECT_EQ(crypto::ecdsa_verify_batch(curve, items),
            std::vector<bool>(kSigs, true));
  EXPECT_EQ(count("crypto.ecdsa_sign.count"), sign0 + kSigs);
  EXPECT_EQ(count("crypto.ecdsa_verify.count"), verify0 + kSigs);
  EXPECT_EQ(count("crypto.ecdsa_verify_batch.count"), batch0 + 1);
  EXPECT_EQ(count("crypto.ecdsa_verify_batch.sigs"), batch_sigs0 + kSigs);
  EXPECT_EQ(count("crypto.ecdsa_verify_batch.fallback.count"), fallback0);

  const std::string json = m.to_json();
  EXPECT_EQ(json.find(".real_us\""), std::string::npos) << json;
  EXPECT_EQ(json.find(".real_us{"), std::string::npos) << json;
}

// -------------------------------------- end-to-end: attested GET span tree

/// Single-node deployment, enough for one attested GET through the
/// extension (same shape as the quickstart, minus the commentary).
struct ObsE2eFixture : ::testing::Test {
  ObsE2eFixture()
      : network(clock),
        drbg(to_bytes(std::string_view("obs-e2e"))),
        kds(drbg),
        kds_service(kds, network, {"kds.amd.com", 443}),
        acme(clock, drbg),
        platform(to_bytes(std::string_view("obs-platform")),
                 sevsnp::TcbVersion{2, 0, 8, 115}) {
    kds.register_platform(platform);

    imagebuild::PackageRegistry registry;
    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = registry.publish(base);
    inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("app-v1"));
    inputs.initrd.services = {{"app", "/opt/service/app", 50.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    const auto image = *builder.build(inputs);
    expected = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);

    net::HttpRouter routes;
    routes.route("GET", "/", [](const net::HttpRequest&) {
      return net::HttpResponse::ok(to_bytes(std::string_view("ok")),
                                   "text/html");
    });
    core::RevelioVmConfig config;
    config.domain = "obs.revelio.app";
    config.host = "10.0.0.1";
    config.image = image;
    config.kds_address = {"kds.amd.com", 443};
    auto deployed =
        core::RevelioVm::deploy(platform, network, config, std::move(routes));
    node = std::move(*deployed);

    core::SpNodeConfig sp_config;
    sp_config.domain = "obs.revelio.app";
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected};
    sp = std::make_unique<core::SpNode>(network, acme, sp_config);
    sp->approve_node(node->bootstrap_address(), platform.chip_id());
    auto outcomes = sp->provision_fleet();
    EXPECT_TRUE(outcomes.ok());
    network.dns_set_a("obs.revelio.app", "10.0.0.1");
  }

  SimClock clock;
  net::Network network;
  crypto::HmacDrbg drbg;
  sevsnp::KeyDistributionServer kds;
  core::KdsService kds_service;
  pki::AcmeIssuer acme;
  sevsnp::AmdSp platform;
  sevsnp::Measurement expected;
  std::unique_ptr<core::RevelioVm> node;
  std::unique_ptr<core::SpNode> sp;
};

TEST_F(ObsE2eFixture, AttestedGetProducesTheDocumentedSpanTree) {
  core::Browser browser(network, "laptop", acme.trusted_roots(),
                        crypto::HmacDrbg(to_bytes(std::string_view("user"))));
  core::WebExtensionConfig ext_config;
  ext_config.kds_address = {"kds.amd.com", 443};
  core::WebExtension extension(browser, ext_config);
  core::SiteRegistration site;
  site.expected_measurements = {expected};
  extension.register_site("obs.revelio.app", site);

  TracerGuard guard;  // tracing on only for the request under test
  auto verified = extension.get("obs.revelio.app", 443, "/");
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_TRUE(verified->checks.all_ok());

  // Root: one session validation in attest mode that succeeded.
  const auto* session = find_span("ext.session_validate");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->parent_id, 0u);
  EXPECT_EQ(session->attr("mode"), "attest");
  EXPECT_EQ(session->attr("result"), "ok");

  // TLS handshake under the session, with its phases under it.
  const auto* handshake = find_span("tls.handshake");
  ASSERT_NE(handshake, nullptr);
  EXPECT_EQ(parent_name(*handshake), "ext.session_validate");
  EXPECT_EQ(handshake->attr("result"), "ok");
  const auto* hello = find_span("tls.hello_roundtrip");
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(parent_name(*hello), "tls.handshake");
  const auto* transcript = find_span("tls.transcript_verify");
  ASSERT_NE(transcript, nullptr);
  EXPECT_EQ(parent_name(*transcript), "tls.handshake");

  // The attestation pass under the session, its steps under it.
  const auto* attest = find_span("ext.attest");
  ASSERT_NE(attest, nullptr);
  EXPECT_EQ(parent_name(*attest), "ext.session_validate");
  EXPECT_EQ(attest->attr("result"), "ok");
  const auto* evidence = find_span("ext.evidence_fetch");
  ASSERT_NE(evidence, nullptr);
  EXPECT_EQ(parent_name(*evidence), "ext.attest");
  const auto* kds_fetch = find_span("ext.kds_fetch");
  ASSERT_NE(kds_fetch, nullptr);
  EXPECT_EQ(parent_name(*kds_fetch), "ext.attest");

  // Report verification nests the chain walk and the signature check.
  const auto* report = find_span("sevsnp.report_verify");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(parent_name(*report), "ext.attest");
  EXPECT_EQ(report->attr("result"), "ok");
  const auto* signature = find_span("sevsnp.signature_verify");
  ASSERT_NE(signature, nullptr);
  EXPECT_EQ(parent_name(*signature), "sevsnp.report_verify");
  bool chain_under_report = false;
  bool chain_under_handshake = false;
  for (const auto& span : obs::tracer().finished_spans()) {
    if (span.name != "pki.chain_verify") continue;
    EXPECT_EQ(span.attr("result"), "ok");
    if (parent_name(span) == "sevsnp.report_verify") chain_under_report = true;
    if (parent_name(span) == "tls.handshake") chain_under_handshake = true;
  }
  EXPECT_TRUE(chain_under_report);    // VCEK chain during report verify
  EXPECT_TRUE(chain_under_handshake); // web PKI chain during the handshake

  // Virtual time propagates: the KDS round trip dominates the attest span.
  EXPECT_GE(attest->virt_us(), kds_fetch->virt_us());
  EXPECT_GE(session->virt_us(), attest->virt_us());
  EXPECT_GT(kds_fetch->virt_us(), 0u);
}

TEST_F(ObsE2eFixture, MonitoredGetAndRegistryLookupEmitMetrics) {
  core::Browser browser(network, "laptop", acme.trusted_roots(),
                        crypto::HmacDrbg(to_bytes(std::string_view("user2"))));
  core::WebExtensionConfig ext_config;
  ext_config.kds_address = {"kds.amd.com", 443};
  core::WebExtension extension(browser, ext_config);

  // Delegated measurement judgement: a registry instead of a manual pin.
  core::TrustedRegistry registry;
  registry.publish("obs", expected);
  core::SiteRegistration site;
  site.registry = &registry;
  site.registry_service = "obs";
  extension.register_site("obs.revelio.app", site);

  auto& m = obs::metrics();
  const auto attest_ok0 =
      m.counter_value("ext.attest.result.count", {{"result", "ok"}});
  const auto monitor0 = m.counter_value("ext.monitor.count");
  const auto lookup0 =
      m.counter_value("registry.lookup.count", {{"result", "acceptable"}});
  const auto handshake0 = m.counter_value("tls.handshake.count");

  ASSERT_TRUE(extension.get("obs.revelio.app", 443, "/").ok());  // attests
  ASSERT_TRUE(extension.get("obs.revelio.app", 443, "/").ok());  // monitors

  EXPECT_EQ(m.counter_value("ext.attest.result.count", {{"result", "ok"}}),
            attest_ok0 + 1);
  EXPECT_EQ(m.counter_value("ext.monitor.count"), monitor0 + 1);
  EXPECT_EQ(
      m.counter_value("registry.lookup.count", {{"result", "acceptable"}}),
      lookup0 + 1);
  EXPECT_EQ(m.counter_value("tls.handshake.count"), handshake0 + 1);
}

}  // namespace
}  // namespace revelio
