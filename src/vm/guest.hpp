// Guest VM runtime: the measured init flow.
//
// After the firmware has verified the boot blobs (§2.1.2), the guest init
// process — whose logic lives in the measured initrd — brings the system
// up (§5.2): map the rootfs through dm-verity with the root hash from the
// kernel command line, verify it, unlock (or first-boot format) the
// encrypted data volume with the measurement-derived sealing key, apply
// the firewall posture and start the services. Each phase is timed; the
// Table 1 benchmark reads the resulting BootReport.
#pragma once

#include <memory>
#include <optional>

#include "common/sim_clock.hpp"
#include "sevsnp/guest_channel.hpp"
#include "storage/dm_crypt.hpp"
#include "storage/dm_verity.hpp"
#include "storage/imagefs.hpp"
#include "storage/mem_disk.hpp"
#include "vm/blobs.hpp"
#include "vm/firmware.hpp"

namespace revelio::vm {

struct BootPhase {
  std::string name;
  double real_ms = 0.0;  // measured wall time of actual work done here
  double sim_ms = 0.0;   // charged to the simulated clock
};

struct BootReport {
  std::vector<BootPhase> phases;
  bool first_boot = false;

  double total_sim_ms() const {
    double total = 0.0;
    for (const auto& phase : phases) total += phase.sim_ms;
    return total;
  }
  const BootPhase* find(const std::string& name) const {
    for (const auto& phase : phases) {
      if (phase.name == name) return &phase;
    }
    return nullptr;
  }
};

class GuestVm {
 public:
  GuestVm(sevsnp::AmdSp& sp, SimClock& clock, KernelSpec kernel,
          InitrdSpec initrd, KernelCmdline cmdline,
          std::shared_ptr<storage::MemDisk> disk);

  /// Runs the init sequence; fails if any integrity step fails.
  Result<BootReport> boot();

  bool booted() const { return booted_; }
  const KernelSpec& kernel() const { return kernel_; }
  const InitrdSpec& initrd() const { return initrd_; }
  const sevsnp::Measurement& measurement() const { return measurement_; }
  SimClock& clock() { return *clock_; }

  /// Mounted (verity-protected) root filesystem. Only valid after boot().
  const storage::MountedFs& rootfs() const { return *rootfs_; }

  /// Decrypted data volume (sealing-key protected). Only after boot() and
  /// only when the initrd configured dm-crypt.
  std::shared_ptr<storage::BlockDevice> data_volume() { return data_volume_; }

  /// Guest side of the AMD-SP channel. Only valid after boot().
  sevsnp::GuestChannel& channel() { return *channel_; }

  /// Firewall check applied to inbound connections (§5.1.3).
  bool inbound_allowed(std::uint16_t port) const;

 private:
  Status setup_verity(BootReport& report);
  Status setup_crypt(BootReport& report);
  Status start_services(BootReport& report);

  sevsnp::AmdSp* sp_;
  SimClock* clock_;
  KernelSpec kernel_;
  InitrdSpec initrd_;
  KernelCmdline cmdline_;
  std::shared_ptr<storage::MemDisk> disk_;
  sevsnp::Measurement measurement_;

  bool booted_ = false;
  std::optional<sevsnp::GuestChannel> channel_;
  std::shared_ptr<storage::VerityDevice> verity_dev_;
  std::optional<storage::MountedFs> rootfs_;
  std::shared_ptr<storage::BlockDevice> data_volume_;
};

}  // namespace revelio::vm
