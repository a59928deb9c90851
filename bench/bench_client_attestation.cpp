// Table 3 reproduction: browser-based remote attestation and validation.
//
// Paper rows (mobile client, wireless, against a Revelio Boundary Node):
//   network latency                    5.2 ms
//   plain HTTP GET                   100.9 ms
//   HTTP GET + remote attestation    778.9 ms  (KDS VCEK fetch: 427.3 ms)
//   HTTP GET + connection validation 115.0 ms
//
// Link latencies are configured to the paper's observed values (client <->
// service RTT 5.2 ms, client <-> AMD KDS RTT 427.3 ms); server-side page
// work models the measured plain-GET gap. The attestation crypto is real.
// Shapes to reproduce: fresh attestation is dominated by the KDS round
// trip; once the VCEK is cached, a monitored GET costs only ~14 ms over a
// plain one.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "imagebuild/builder.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/sp_node.hpp"
#include "revelio/web_extension.hpp"

namespace {

using namespace revelio;

constexpr const char* kDomain = "svc.revelio.app";
constexpr double kPageWorkMs = 90.5;  // server-side work on the app route

/// Virtual milliseconds elapsed on `clock` since `before_us`.
double ms_since(const SimClock& clock, SimClock::Micros before_us) {
  return static_cast<double>(clock.now_us() - before_us) / 1000.0;
}

struct ClientRig {
  ClientRig()
      : network(clock),
        drbg(to_bytes(std::string_view("bench-client"))),
        kds(drbg),
        kds_service(kds, network, {"kds.amd.com", 443}),
        acme(clock, drbg) {
    network.set_default_latency_ms(2.6);                     // RTT 5.2 ms
    network.set_link_latency_ms("laptop", "kds.amd.com", 213.65);  // 427.3

    imagebuild::BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    base.packages = {{"nginx", "1.18",
                      {{"/usr/sbin/nginx",
                        to_bytes(std::string_view("nginx-binary"))}}}};
    imagebuild::PackageRegistry registry;
    const auto digest = registry.publish(base);
    imagebuild::BuildInputs inputs;
    inputs.base_image_digest = digest;
    inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("bn-v1"));
    inputs.initrd.services = {{"app", "/opt/service/app", 50.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    const auto image = *builder.build(inputs);
    expected = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);

    platform = std::make_unique<sevsnp::AmdSp>(
        to_bytes(std::string_view("client-bench-platform")),
        sevsnp::TcbVersion{2, 0, 8, 115});
    kds.register_platform(*platform);

    net::HttpRouter routes;
    SimClock* clock_ptr = &clock;
    routes.route("GET", "/", [clock_ptr](const net::HttpRequest&) {
      clock_ptr->advance_us(SimClock::from_ms(kPageWorkMs));  // page assembly + app logic
      return net::HttpResponse::ok(
          to_bytes(std::string_view("<html>boundary node</html>")),
          "text/html");
    });
    core::RevelioVmConfig config;
    config.domain = kDomain;
    config.host = "10.0.0.1";
    config.image = image;
    config.kds_address = {"kds.amd.com", 443};
    auto deployed = core::RevelioVm::deploy(*platform, network, config,
                                            std::move(routes));
    node = std::move(*deployed);

    core::SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected};
    sp = std::make_unique<core::SpNode>(network, acme, sp_config);
    sp->approve_node(node->bootstrap_address(), platform->chip_id());
    auto outcomes = sp->provision_fleet();
    if (!outcomes.ok()) std::abort();
    network.dns_set_a(kDomain, "10.0.0.1");
  }

  core::Browser make_browser() {
    return core::Browser(network, "laptop", acme.trusted_roots(),
                         crypto::HmacDrbg(drbg.generate(32)));
  }
  core::WebExtension make_extension(core::Browser& browser) {
    core::WebExtensionConfig config;
    config.kds_address = {"kds.amd.com", 443};
    return make_extension(browser, config);
  }
  core::WebExtension make_extension(core::Browser& browser,
                                    core::WebExtensionConfig config) {
    core::WebExtension ext(browser, config);
    core::SiteRegistration site;
    site.expected_measurements = {expected};
    ext.register_site(kDomain, site);
    return ext;
  }

  SimClock clock;
  net::Network network;
  crypto::HmacDrbg drbg;
  sevsnp::KeyDistributionServer kds;
  core::KdsService kds_service;
  pki::AcmeIssuer acme;
  sevsnp::Measurement expected;
  std::unique_ptr<sevsnp::AmdSp> platform;
  std::unique_ptr<core::RevelioVm> node;
  std::unique_ptr<core::SpNode> sp;
};

ClientRig& rig() {
  static ClientRig r;
  return r;
}

void BM_NetworkLatency(benchmark::State& state) {
  auto& r = rig();
  r.network.listen({"10.0.0.9", 7}, [](ByteView req, const net::Address&) {
    return to_bytes(req);
  });
  for (auto _ : state) {
    const SimClock::Micros before = r.clock.now_us();
    benchmark::DoNotOptimize(
        r.network.call({"laptop", 1}, {"10.0.0.9", 7}, {}));
    state.SetIterationTime(ms_since(r.clock, before) / 1000.0);
  }
}

void BM_PlainHttpGet(benchmark::State& state) {
  auto& r = rig();
  core::Browser browser = r.make_browser();
  (void)browser.get(kDomain, 443, "/");  // establish the session
  for (auto _ : state) {
    const SimClock::Micros before = r.clock.now_us();
    benchmark::DoNotOptimize(browser.get(kDomain, 443, "/"));
    state.SetIterationTime(ms_since(r.clock, before) / 1000.0);
  }
}

void BM_GetWithRemoteAttestation(benchmark::State& state) {
  auto& r = rig();
  for (auto _ : state) {
    // Fresh browser + cold VCEK cache: the paper's "fresh web session".
    core::Browser browser = r.make_browser();
    core::WebExtension extension = r.make_extension(browser);
    const SimClock::Micros before = r.clock.now_us();
    auto verified = extension.get(kDomain, 443, "/");
    benchmark::DoNotOptimize(verified);
    state.SetIterationTime(ms_since(r.clock, before) / 1000.0);
  }
}

void BM_GetWithCachedVcek(benchmark::State& state) {
  auto& r = rig();
  core::Browser browser = r.make_browser();
  core::WebExtension extension = r.make_extension(browser);
  (void)extension.get(kDomain, 443, "/");  // warm the VCEK cache
  for (auto _ : state) {
    browser.drop_session(kDomain);
    extension.invalidate(kDomain);
    const SimClock::Micros before = r.clock.now_us();
    benchmark::DoNotOptimize(extension.get(kDomain, 443, "/"));
    state.SetIterationTime(ms_since(r.clock, before) / 1000.0);
  }
}

void BM_GetWithConnectionValidation(benchmark::State& state) {
  auto& r = rig();
  core::Browser browser = r.make_browser();
  core::WebExtension extension = r.make_extension(browser);
  (void)extension.get(kDomain, 443, "/");  // attested session
  for (auto _ : state) {
    const SimClock::Micros before = r.clock.now_us();
    benchmark::DoNotOptimize(extension.get(kDomain, 443, "/"));
    state.SetIterationTime(ms_since(r.clock, before) / 1000.0);
  }
}

BENCHMARK(BM_NetworkLatency)->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlainHttpGet)->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GetWithRemoteAttestation)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);
BENCHMARK(BM_GetWithCachedVcek)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);
BENCHMARK(BM_GetWithConnectionValidation)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void print_table3() {
  auto& r = rig();
  auto measure = [&](auto&& fn) {
    const SimClock::Micros before = r.clock.now_us();
    fn();
    return ms_since(r.clock, before);
  };

  r.network.listen({"10.0.0.9", 7}, [](ByteView req, const net::Address&) {
    return to_bytes(req);
  });
  const double net_ms = measure([&] {
    (void)r.network.call({"laptop", 1}, {"10.0.0.9", 7}, {});
  });

  core::Browser plain_browser = r.make_browser();
  (void)plain_browser.get(kDomain, 443, "/");
  const double plain_ms = measure([&] {
    (void)plain_browser.get(kDomain, 443, "/");
  });

  core::Browser fresh_browser = r.make_browser();
  core::WebExtension fresh_ext = r.make_extension(fresh_browser);
  double kds_ms = 0.0;
  const double attest_ms = measure([&] {
    (void)fresh_ext.get(kDomain, 443, "/");
  });
  {
    // Isolate the KDS round trip.
    const SimClock::Micros before = r.clock.now_us();
    (void)core::KdsService::fetch(
        r.network, {"laptop", 2}, {"kds.amd.com", 443}, r.platform->chip_id(),
        r.platform->tcb());
    kds_ms = ms_since(r.clock, before);
  }

  const double monitored_ms = measure([&] {
    (void)fresh_ext.get(kDomain, 443, "/");
  });

  core::Browser cached_browser = r.make_browser();
  core::WebExtension cached_ext = r.make_extension(cached_browser);
  (void)cached_ext.get(kDomain, 443, "/");
  cached_browser.drop_session(kDomain);
  cached_ext.invalidate(kDomain);
  const double cached_attest_ms = measure([&] {
    (void)cached_ext.get(kDomain, 443, "/");
  });

  std::printf("\n=== Table 3: browser-based remote attestation ===\n");
  std::printf("%-36s %12s %10s\n", "operation", "measured", "paper");
  std::printf("%-36s %9.1f ms %7.1f ms\n", "network latency (RTT)", net_ms,
              5.2);
  std::printf("%-36s %9.1f ms %7.1f ms\n", "plain HTTP GET", plain_ms, 100.9);
  std::printf("%-36s %9.1f ms %7.1f ms\n", "HTTP GET + remote attestation",
              attest_ms, 778.9);
  std::printf("%-36s %9.1f ms %7.1f ms\n", "  of which KDS VCEK fetch",
              kds_ms, 427.3);
  std::printf("%-36s %9.1f ms %7s\n", "HTTP GET + attestation (VCEK cached)",
              cached_attest_ms, "n/a");
  std::printf("%-36s %9.1f ms %7.1f ms\n", "HTTP GET + conn. validation",
              monitored_ms, 115.0);
  std::printf("shape: fresh attestation dominated by the KDS round trip; "
              "caching collapses it;\n"
              "       monitored requests cost ~14 ms over plain\n\n");
}

// --stages-out mode: one attested GET with tracing on, aggregated per span
// name. Virtual-clock stage totals are deterministic, so run_benches.sh can
// diff them against a committed baseline without noise.
std::string run_traced_get(core::WebExtension& extension) {
  auto& r = rig();
  obs::tracer().clear();
  const SimClock::Micros before = r.clock.now_us();
  auto verified = extension.get(kDomain, 443, "/");
  if (!verified.ok()) std::abort();
  const double total_virt_ms = ms_since(r.clock, before);

  struct Agg {
    std::uint64_t count = 0;
    double virt_us = 0.0;
    double real_us = 0.0;
  };
  std::map<std::string, Agg> stages;
  for (const auto& span : obs::tracer().finished_spans()) {
    Agg& agg = stages[span.name];
    ++agg.count;
    agg.virt_us += span.virt_us();
    agg.real_us += span.real_us();
  }

  std::string out = "{\"total_virt_ms\":" + obs::json_number(total_virt_ms) +
                    ",\"stages\":{";
  bool first = true;
  for (const auto& [name, agg] : stages) {
    if (!first) out += ",";
    first = false;
    out += "\"" + obs::json_escape(name) + "\":{\"count\":" +
           std::to_string(agg.count) +
           ",\"virt_ms\":" + obs::json_number(agg.virt_us / 1000.0) +
           ",\"real_ms\":" + obs::json_number(agg.real_us / 1000.0) + "}";
  }
  out += "}}";
  return out;
}

int run_stages_out(const char* path) {
  auto& r = rig();
  obs::tracer().set_enabled(true);

  // Cold: fresh browser + extension, empty VCEK and chain caches.
  core::Browser browser = r.make_browser();
  core::WebExtension extension = r.make_extension(browser);
  const std::string cold = run_traced_get(extension);

  // Cached: drop the session and the attested state, keep the caches — the
  // re-attestation skips the KDS round trip and the chain walk.
  browser.drop_session(kDomain);
  extension.invalidate(kDomain);
  const std::string cached = run_traced_get(extension);

  obs::tracer().set_enabled(false);

  // Fault-free overhead of the resilience layer: monitored GETs on an
  // attested session, with the retry/failover machinery disabled
  // (max_attempts = 1, the default) vs fully armed (retries, a KDS mirror
  // list, a per-pass deadline). The virtual-clock delta is the honest
  // measure — backoff is the only thing the layer may charge, and on the
  // fault-free path it must charge none. run_benches.sh gates the
  // percentage at < 2%.
  constexpr int kOverheadIters = 25;
  auto monitored_virt_ms = [&](core::WebExtensionConfig config) {
    core::Browser b = r.make_browser();
    core::WebExtension ext = r.make_extension(b, std::move(config));
    auto warm = ext.get(kDomain, 443, "/");
    if (!warm.ok()) std::abort();
    const SimClock::Micros before = r.clock.now_us();
    for (int i = 0; i < kOverheadIters; ++i) {
      if (!ext.get(kDomain, 443, "/").ok()) std::abort();
    }
    return ms_since(r.clock, before) / kOverheadIters;
  };
  core::WebExtensionConfig plain_config;
  plain_config.kds_address = {"kds.amd.com", 443};
  const double plain_virt_ms = monitored_virt_ms(plain_config);
  core::WebExtensionConfig resilient_config = plain_config;
  resilient_config.kds_mirrors = {{"kds-mirror.amd.com", 443}};
  resilient_config.retry.max_attempts = 4;
  resilient_config.attest_deadline_ms = 30'000.0;
  const double resilient_virt_ms = monitored_virt_ms(resilient_config);
  const double overhead_pct =
      plain_virt_ms > 0.0
          ? (resilient_virt_ms - plain_virt_ms) / plain_virt_ms * 100.0
          : 0.0;
  const std::string retry_overhead =
      "{\"plain_virt_ms\":" + obs::json_number(plain_virt_ms) +
      ",\"resilient_virt_ms\":" + obs::json_number(resilient_virt_ms) +
      ",\"overhead_pct\":" + obs::json_number(overhead_pct) + "}";

  const std::string doc = "{\"cold\":" + cold + ",\"cached\":" + cached +
                          ",\"retry_overhead\":" + retry_overhead + "}";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("per-stage attestation breakdown written to %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stages-out") == 0 && i + 1 < argc) {
      return run_stages_out(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table3();
  return 0;
}
