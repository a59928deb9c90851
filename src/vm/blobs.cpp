#include "vm/blobs.hpp"

#include <sstream>

#include "common/sim_clock.hpp"

namespace revelio::vm {

namespace {

void append_string(Bytes& out, const std::string& s) {
  append_u32be(out, static_cast<std::uint32_t>(s.size()));
  append(out, s);
}

struct Reader {
  ByteView data;
  std::size_t off = 0;
  bool failed = false;

  std::uint32_t u32() {
    if (off + 4 > data.size()) {
      failed = true;
      return 0;
    }
    const std::uint32_t v = read_u32be(data, off);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (off + 8 > data.size()) {
      failed = true;
      return 0;
    }
    const std::uint64_t v = read_u64be(data, off);
    off += 8;
    return v;
  }
  std::uint8_t u8() {
    if (off + 1 > data.size()) {
      failed = true;
      return 0;
    }
    return data[off++];
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (failed || off + len > data.size()) {
      failed = true;
      return {};
    }
    std::string s(data.begin() + static_cast<std::ptrdiff_t>(off),
                  data.begin() + static_cast<std::ptrdiff_t>(off + len));
    off += len;
    return s;
  }
};

}  // namespace

Bytes KernelSpec::serialize() const {
  Bytes out;
  append(out, std::string_view("RKRN1"));
  append_string(out, version);
  append_u8(out, enforce_verity ? 1 : 0);
  append_u8(out, sev_snp_enabled ? 1 : 0);
  return out;
}

Result<KernelSpec> KernelSpec::parse(ByteView data) {
  if (data.size() < 5 || to_string(data.subspan(0, 5)) != "RKRN1") {
    return Error::make("vm.bad_kernel_blob");
  }
  Reader r{data, 5};
  KernelSpec spec;
  spec.version = r.str();
  spec.enforce_verity = r.u8() != 0;
  spec.sev_snp_enabled = r.u8() != 0;
  if (r.failed) return Error::make("vm.bad_kernel_blob", "truncated");
  return spec;
}

Bytes InitrdSpec::serialize() const {
  Bytes out;
  append(out, std::string_view("RIRD1"));
  append_u8(out, setup_verity ? 1 : 0);
  append_u8(out, setup_crypt ? 1 : 0);
  append_u8(out, block_inbound_network ? 1 : 0);
  append_u32be(out, static_cast<std::uint32_t>(allowed_inbound_ports.size()));
  for (const auto& port : allowed_inbound_ports) append_string(out, port);
  append_u32be(out, static_cast<std::uint32_t>(services.size()));
  for (const auto& service : services) {
    append_string(out, service.name);
    append_string(out, service.binary_path);
    append_u64be(out, SimClock::from_ms(service.startup_ms));
  }
  return out;
}

Result<InitrdSpec> InitrdSpec::parse(ByteView data) {
  if (data.size() < 5 || to_string(data.subspan(0, 5)) != "RIRD1") {
    return Error::make("vm.bad_initrd_blob");
  }
  Reader r{data, 5};
  InitrdSpec spec;
  spec.setup_verity = r.u8() != 0;
  spec.setup_crypt = r.u8() != 0;
  spec.block_inbound_network = r.u8() != 0;
  const std::uint32_t port_count = r.u32();
  if (port_count > 1024) return Error::make("vm.bad_initrd_blob", "ports");
  spec.allowed_inbound_ports.clear();
  for (std::uint32_t i = 0; i < port_count && !r.failed; ++i) {
    spec.allowed_inbound_ports.push_back(r.str());
  }
  const std::uint32_t service_count = r.u32();
  if (service_count > 4096) {
    return Error::make("vm.bad_initrd_blob", "services");
  }
  for (std::uint32_t i = 0; i < service_count && !r.failed; ++i) {
    ServiceSpec service;
    service.name = r.str();
    service.binary_path = r.str();
    service.startup_ms = static_cast<double>(r.u64()) / 1000.0;
    spec.services.push_back(std::move(service));
  }
  if (r.failed) return Error::make("vm.bad_initrd_blob", "truncated");
  return spec;
}

std::string KernelCmdline::to_string() const {
  std::ostringstream out;
  out << "root=PART=" << root_partition;
  if (!verity_root_hash_hex.empty()) {
    out << " verity.hashdev=PART=" << verity_hash_partition
        << " verity.roothash=" << verity_root_hash_hex;
  }
  out << " data=PART=" << data_partition;
  for (const auto& [k, v] : extra) out << " " << k << "=" << v;
  return out.str();
}

Result<KernelCmdline> KernelCmdline::parse(std::string_view text) {
  KernelCmdline cmdline;
  cmdline.root_partition.clear();
  cmdline.verity_hash_partition.clear();
  cmdline.data_partition.clear();
  std::istringstream in{std::string(text)};
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      return Error::make("vm.bad_cmdline", token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    auto strip_part = [](const std::string& v) {
      return v.rfind("PART=", 0) == 0 ? v.substr(5) : v;
    };
    if (key == "root") {
      cmdline.root_partition = strip_part(value);
    } else if (key == "verity.hashdev") {
      cmdline.verity_hash_partition = strip_part(value);
    } else if (key == "verity.roothash") {
      cmdline.verity_root_hash_hex = value;
    } else if (key == "data") {
      cmdline.data_partition = strip_part(value);
    } else {
      cmdline.extra[key] = value;
    }
  }
  if (cmdline.root_partition.empty()) {
    return Error::make("vm.bad_cmdline", "missing root=");
  }
  return cmdline;
}

}  // namespace revelio::vm
