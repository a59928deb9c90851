// repobench: the repository benchmark's measuring program.
//
//   repobench --workload attest_warm|attest_cold|cvm_node --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one workload in this process and prints, as its last stdout line,
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Earlier
// lines carry the host calibration, the deterministic fingerprint and the
// same numbers under their per-workload names. Exits 1 when a correctness
// gate breaks (the result line then says "correct":false).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

using namespace repobench;

std::string quote(const std::string& s) {
  std::string out(1, '"');
  out += revelio::obs::json_escape(s);
  out += '"';
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += quote(name) + ":{\"value\":" + num(m.value) +
           ",\"unit\":" + quote(m.unit) + "}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: repobench --workload attest_warm|attest_cold|cvm_node "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") opt.trace = std::strcmp(value, "1") == 0;
    else if (key == "--trace-out") opt.trace_out = value;
    else return usage();
  }
  if (argc % 2 != 1 || !(opt.seconds > 0.0)) return usage();

  Outcome (*run)(const Options&, Ledger&) = nullptr;
  // The library's global pool width comes from REVELIO_THREADS; it must be
  // set before anything builds the pool. attest_* drives at most 2 engine
  // workers; cvm_node is single-threaded end to end.
  if (opt.workload == "attest_warm") run = run_attest_warm;
  else if (opt.workload == "attest_cold") run = run_attest_cold;
  else if (opt.workload == "cvm_node") run = run_cvm_node;
  else return usage();
  setenv("REVELIO_THREADS", opt.workload == "cvm_node" ? "1" : "2", 1);
  pace_use_kernel(opt.workload == "cvm_node" ? PaceKernel::kHashCipher
                                             : PaceKernel::kFieldArith);

  const HostCalibration host = calibrate_host();
  std::printf(
      "{\"host\":{\"nproc\":%u,\"spin1_cpu_ms\":%s,\"spin1_wall_ms\":%s,"
      "\"spin2_cpu_ms_per_thread\":%s,\"spin2_wall_ms\":%s}}\n",
      host.nproc, num(host.spin1_cpu_ms).c_str(),
      num(host.spin1_wall_ms).c_str(),
      num(host.spin2_cpu_ms_per_thread).c_str(),
      num(host.spin2_wall_ms).c_str());
  std::fflush(stdout);

  Ledger ledger;
  Outcome out = run(opt, ledger);
  set_layer(out, "host.nproc", host.nproc);
  set_layer(out, "host.spin1.cpu_ms", host.spin1_cpu_ms);
  set_layer(out, "host.spin1.wall_ms", host.spin1_wall_ms);
  set_layer(out, "host.spin2.cpu_ms_per_thread", host.spin2_cpu_ms_per_thread);
  set_layer(out, "host.spin2.wall_ms", host.spin2_wall_ms);
  set_layer(out, "host.pace.probe_ns", pace_run_probe_ns());
  // host.nproc describes the machine, not the program: keep it out of the
  // fingerprint that two runs must reproduce.
  out.fingerprint.erase("host.nproc");

  std::string fp = "{\"fingerprint\":{";
  for (const auto& [name, value] : out.fingerprint) {
    if (fp.back() != '{') fp += ",";
    fp += quote(name) + ":" + num(value);
  }
  fp += "},\"varied\":[";
  for (std::size_t i = 0; i < out.varied.size(); ++i) {
    if (i > 0) fp += ",";
    fp += quote(out.varied[i]);
  }
  fp += "],\"inputs_digest\":" + quote(out.inputs_digest) + "}";
  std::printf("%s\n", fp.c_str());
  out.named["fail_ratio"] = {
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0.0,
      "ratio"};
  out.named["setup_s"] = out.end_to_end.at("setup_s");
  out.named["pace_probe_ns"] = {pace_run_probe_ns(), "ns"};
  out.named["peak_rss_mib"] = out.end_to_end.at("peak_rss_mib");
  std::printf("{\"workload_metrics\":%s}\n", metrics_json(out.named).c_str());

  if (opt.trace) {
    std::string self = "{\"ledger_self_cpu_ms\":{";
    for (const auto& [name, ms] : ledger.self_ms()) {
      if (self.back() != '{') self += ",";
      self += quote(name) + ":" + num(ms);
    }
    std::printf("%s},\"spans\":%zu}\n", self.c_str(), ledger.size());
    if (!opt.trace_out.empty() && !ledger.write_jsonl(opt.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", opt.trace_out.c_str());
    }
  }

  const bool correct = out.gate_failures.empty();
  for (const auto& msg : out.gate_failures) {
    std::fprintf(stderr, "GATE: %s\n", msg.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(opt.trace ? out.per_layer : out.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
