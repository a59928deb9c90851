// Guest boot blobs: kernel, initrd and kernel command line.
//
// In the simulation these are structured descriptions of *behaviour* —
// whether the kernel enforces verity, which services the initrd starts,
// what the firewall allows — serialized to canonical bytes. The bytes are
// what gets hashed into the measured-boot chain, so a behavioural change
// (say, a kernel that skips rootfs verification) necessarily changes the
// measurement, exactly the property the paper's trust argument rests on.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/sha2.hpp"

namespace revelio::vm {

/// Kernel behaviour switches (the SEV-SNP-enlightened guest kernel).
struct KernelSpec {
  std::string version = "5.17.0-rc6-snp";
  bool enforce_verity = true;   // honour verity failures (abort reads)
  bool sev_snp_enabled = true;  // guest talks to the AMD-SP

  Bytes serialize() const;
  static Result<KernelSpec> parse(ByteView data);
  friend bool operator==(const KernelSpec&, const KernelSpec&) = default;
};

/// One service the init system starts, with its startup cost. The cost
/// models the daemon's real initialisation (paper: the Boundary Node's many
/// services account for its 22.7 s boot).
struct ServiceSpec {
  std::string name;
  std::string binary_path;  // must exist in the rootfs
  double startup_ms = 100.0;

  friend bool operator==(const ServiceSpec&, const ServiceSpec&) = default;
};

/// Initrd contents: early-boot logic configuration.
struct InitrdSpec {
  bool setup_verity = true;        // map rootfs through dm-verity
  bool setup_crypt = true;         // unlock/format the data volume
  bool block_inbound_network = true;  // §5.1.3 firewall posture
  std::vector<std::string> allowed_inbound_ports;  // e.g. "443"
  std::vector<ServiceSpec> services;

  Bytes serialize() const;
  static Result<InitrdSpec> parse(ByteView data);
  friend bool operator==(const InitrdSpec&, const InitrdSpec&) = default;
};

/// Kernel command line; carries the verity root hash (§5.1.2) and the
/// rootfs's block count, which fixes the verity tree's shape.
struct KernelCmdline {
  std::string root_partition = "rootfs";
  std::string verity_hash_partition = "verity";
  std::string verity_root_hash_hex;  // empty => verity disabled
  std::uint64_t verity_data_blocks = 0;  // written with the root hash
  std::string data_partition = "data";
  std::map<std::string, std::string> extra;

  std::string to_string() const;
  static Result<KernelCmdline> parse(std::string_view text);
  Bytes serialize() const { return to_bytes(to_string()); }
};

}  // namespace revelio::vm
