// Table 2 reproduction: SSL certificate generation and distribution.
//
// Paper rows (one node, SP-node viewpoint):
//   attestation evidence retrieval   17 ms   (fetch report-CSR bundle)
//   attestation evidence validation  13 ms   (chain + signature + binding)
//   SSL certificate generation     2996 ms   (ACME/Let's Encrypt pipeline)
//   SSL certificate distribution     15 ms   (POST to the node)
//
// Retrieval/distribution are network round trips (simulated clock);
// validation is real cryptography (wall time); generation is the modelled
// CA pipeline latency. Times reported to google-benchmark are simulated
// seconds (manual time). An ablation at the end shows why the fleet shares
// one certificate: per-node issuance trips the CA rate limit.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "imagebuild/builder.hpp"
#include "revelio/revelio_vm.hpp"
#include "revelio/sp_node.hpp"

namespace {

using namespace revelio;

constexpr const char* kDomain = "svc.revelio.app";

/// Virtual milliseconds elapsed on `clock` since `before_us`.
double ms_since(const SimClock& clock, SimClock::Micros before_us) {
  return static_cast<double>(clock.now_us() - before_us) / 1000.0;
}

struct Fleet {
  Fleet()
      : network(clock),
        drbg(to_bytes(std::string_view("bench-ssl"))),
        kds(drbg),
        kds_service(kds, network, {"kds.amd.com", 443}),
        acme(clock, drbg) {
    // Paper's SP-node <-> node link: 17 ms retrieval round trip.
    network.set_default_latency_ms(8.5);

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
        to_bytes(std::string_view("app-v1"));
    inputs.initrd.services = {{"app", "/opt/service/app", 50.0}};
    inputs.initrd.allowed_inbound_ports = {"443", "8443"};
    imagebuild::ImageBuilder builder(registry);
    image = *builder.build(inputs);
    expected = vm::Hypervisor::expected_measurement(
        image.kernel_blob, image.initrd_blob, image.cmdline);

    for (const std::string host : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
      auto platform = std::make_unique<sevsnp::AmdSp>(
          to_bytes("platform-" + host), sevsnp::TcbVersion{2, 0, 8, 115});
      kds.register_platform(*platform);
      core::RevelioVmConfig config;
      config.domain = kDomain;
      config.host = host;
      config.image = image;
      config.kds_address = {"kds.amd.com", 443};
      auto node =
          core::RevelioVm::deploy(*platform, network, config, net::HttpRouter{});
      nodes.push_back(std::move(*node));
      platforms.push_back(std::move(platform));
    }
    core::SpNodeConfig sp_config;
    sp_config.domain = kDomain;
    sp_config.kds_address = {"kds.amd.com", 443};
    sp_config.expected_measurements = {expected};
    sp = std::make_unique<core::SpNode>(network, acme, sp_config);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sp->approve_node(nodes[i]->bootstrap_address(), platforms[i]->chip_id());
    }
  }

  SimClock clock;
  net::Network network;
  crypto::HmacDrbg drbg;
  sevsnp::KeyDistributionServer kds;
  core::KdsService kds_service;
  pki::AcmeIssuer acme;
  imagebuild::VmImage image;
  sevsnp::Measurement expected;
  std::vector<std::unique_ptr<sevsnp::AmdSp>> platforms;
  std::vector<std::unique_ptr<core::RevelioVm>> nodes;
  std::unique_ptr<core::SpNode> sp;
};

Fleet& fleet() {
  static Fleet f;
  return f;
}

/// Evidence retrieval: the GET /revelio/csr-bundle round trip.
double measure_retrieval_sim_ms() {
  auto& f = fleet();
  net::HttpRequest request;
  request.method = "GET";
  request.path = "/revelio/csr-bundle";
  request.host = kDomain;
  const SimClock::Micros before = f.clock.now_us();
  auto raw = f.network.call({"sp-node.internal", 9000},
                            f.nodes[0]->bootstrap_address(),
                            request.serialize());
  benchmark::DoNotOptimize(raw);
  return ms_since(f.clock, before);
}

/// Evidence validation: pure crypto over an already-retrieved bundle.
double measure_validation_real_ms() {
  auto& f = fleet();
  const auto& bundle = f.nodes[0]->csr_evidence();
  auto vcek = f.kds.fetch_vcek(bundle.report.chip_id,
                               bundle.report.reported_tcb);
  const auto start = std::chrono::steady_clock::now();
  const bool binding = bundle.binding_ok();
  auto st = sevsnp::verify_report(bundle.report, *vcek,
                                  {f.kds.ask_certificate()},
                                  {f.kds.ark_certificate()}, {});
  benchmark::DoNotOptimize(binding);
  benchmark::DoNotOptimize(st);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void BM_EvidenceRetrieval(benchmark::State& state) {
  for (auto _ : state) {
    state.SetIterationTime(measure_retrieval_sim_ms() / 1000.0);
  }
}

void BM_EvidenceValidation(benchmark::State& state) {
  for (auto _ : state) {
    state.SetIterationTime(measure_validation_real_ms() / 1000.0);
  }
}

void BM_CertificateGeneration(benchmark::State& state) {
  auto& f = fleet();
  for (auto _ : state) {
    const SimClock::Micros before = f.clock.now_us();
    const std::string token = f.acme.request_challenge("bench", kDomain);
    f.network.dns_set_txt("_acme-challenge." + std::string(kDomain), token);
    auto cert = f.acme.finalize("bench", f.nodes[0]->csr(),
                                [&](const std::string& name) {
                                  return f.network.dns_txt(name);
                                });
    f.network.dns_clear_txt("_acme-challenge." + std::string(kDomain));
    benchmark::DoNotOptimize(cert);
    state.SetIterationTime(ms_since(f.clock, before) / 1000.0);
  }
}

void BM_FullFleetProvisioning(benchmark::State& state) {
  for (auto _ : state) {
    // Fresh fleet per iteration: provisioning is one-shot per deployment.
    state.PauseTiming();
    Fleet local;
    state.ResumeTiming();
    const SimClock::Micros before = local.clock.now_us();
    auto outcomes = local.sp->provision_fleet();
    benchmark::DoNotOptimize(outcomes);
    state.SetIterationTime(ms_since(local.clock, before) / 1000.0);
  }
}

BENCHMARK(BM_EvidenceRetrieval)->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvidenceValidation)->UseManualTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertificateGeneration)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
BENCHMARK(BM_FullFleetProvisioning)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void print_table2() {
  auto& f = fleet();
  const double retrieval = measure_retrieval_sim_ms();
  const double validation = measure_validation_real_ms();

  // Generation.
  SimClock::Micros before = f.clock.now_us();
  const std::string token = f.acme.request_challenge("t2", kDomain);
  f.network.dns_set_txt("_acme-challenge." + std::string(kDomain), token);
  auto cert = f.acme.finalize("t2", f.nodes[0]->csr(),
                              [&](const std::string& name) {
                                return f.network.dns_txt(name);
                              });
  f.network.dns_clear_txt("_acme-challenge." + std::string(kDomain));
  const double generation = ms_since(f.clock, before);

  // Distribution: the POST /revelio/certificate round trip (leader case
  // installs immediately, so this includes the node-side install work).
  Bytes body;
  auto field = [&body](ByteView v) {
    append_u32be(body, static_cast<std::uint32_t>(v.size()));
    append(body, v);
  };
  field(cert->serialize());
  append_u32be(body, 1);
  field(f.acme.intermediates()[0].serialize());
  field(to_bytes(f.nodes[0]->bootstrap_address().host));
  append_u32be(body, f.nodes[0]->bootstrap_address().port);
  net::HttpRequest post;
  post.method = "POST";
  post.path = "/revelio/certificate";
  post.host = kDomain;
  post.body = std::move(body);
  before = f.clock.now_us();
  auto raw = f.network.call({"sp-node.internal", 9000},
                            f.nodes[0]->bootstrap_address(), post.serialize());
  const double distribution = ms_since(f.clock, before);
  benchmark::DoNotOptimize(raw);

  std::printf("\n=== Table 2: SSL certificate generation and distribution ===\n");
  std::printf("%-34s %12s %10s\n", "operation", "measured", "paper");
  std::printf("%-34s %9.1f ms %7d ms\n", "attestation evidence retrieval",
              retrieval, 17);
  std::printf("%-34s %9.1f ms %7d ms\n", "attestation evidence validation",
              validation, 13);
  std::printf("%-34s %9.1f ms %7d ms\n", "SSL certificate generation",
              generation, 2996);
  std::printf("%-34s %9.1f ms %7d ms\n", "SSL certificate distribution",
              distribution, 15);
  std::printf("shape: generation dominates by ~2 orders of magnitude\n");

  // Ablation: shared certificate vs per-node certificates under the CA
  // rate limit (the design choice of §3.4.6).
  pki::AcmeConfig limited_config;
  limited_config.certs_per_domain = 5;
  SimClock ablation_clock;
  crypto::HmacDrbg ablation_drbg(to_bytes(std::string_view("ablation")));
  pki::AcmeIssuer limited(ablation_clock, ablation_drbg, limited_config);
  net::Network ablation_net(ablation_clock);
  int issued = 0, rate_limited = 0;
  for (int node = 0; node < 8; ++node) {
    crypto::HmacDrbg key_drbg(to_bytes("node" + std::to_string(node)));
    const auto key = crypto::ec_generate(crypto::p256(), key_drbg);
    const auto csr = pki::make_csr(crypto::p256(), key,
                                   {kDomain, "Svc", "US"}, {kDomain});
    const std::string t = limited.request_challenge("sp", kDomain);
    ablation_net.dns_set_txt("_acme-challenge." + std::string(kDomain), t);
    auto r = limited.finalize("sp", csr, [&](const std::string& name) {
      return ablation_net.dns_txt(name);
    });
    ablation_net.dns_clear_txt("_acme-challenge." + std::string(kDomain));
    if (r.ok()) {
      ++issued;
    } else {
      ++rate_limited;
    }
  }
  std::printf("\nablation (per-node certs, CA limit 5/window): %d issued, %d "
              "rate-limited of 8 nodes\n",
              issued, rate_limited);
  std::printf("=> the shared-certificate design needs exactly 1 issuance per "
              "fleet per 90 days\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table2();
  return 0;
}
