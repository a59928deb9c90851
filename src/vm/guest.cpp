#include "vm/guest.hpp"

#include <chrono>

#include "common/hex.hpp"
#include "storage/partition.hpp"

namespace revelio::vm {

namespace {

/// Times a phase: real wall time of the work plus an explicit simulated
/// charge. Real work (hashing, PBKDF2, key generation) is charged to the
/// simulated clock at face value so sim totals stay meaningful.
class PhaseTimer {
 public:
  PhaseTimer(BootReport& report, SimClock& clock, std::string name)
      : report_(&report), clock_(&clock), name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  ~PhaseTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double real_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    clock_->advance_us(SimClock::from_ms(real_ms + extra_sim_ms_));
    report_->phases.push_back(
        BootPhase{name_, real_ms, real_ms + extra_sim_ms_});
  }

  /// Adds simulated-only cost (e.g. a daemon's startup time).
  void charge_sim_ms(double ms) { extra_sim_ms_ += ms; }

 private:
  BootReport* report_;
  SimClock* clock_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double extra_sim_ms_ = 0.0;
};

}  // namespace

GuestVm::GuestVm(sevsnp::AmdSp& sp, SimClock& clock, KernelSpec kernel,
                 InitrdSpec initrd, KernelCmdline cmdline,
                 std::shared_ptr<storage::MemDisk> disk)
    : sp_(&sp),
      clock_(&clock),
      kernel_(std::move(kernel)),
      initrd_(std::move(initrd)),
      cmdline_(std::move(cmdline)),
      disk_(std::move(disk)) {
  if (auto m = sp_->measurement()) measurement_ = *m;
}

Status GuestVm::setup_verity(BootReport& report) {
  auto rootfs_part = storage::PartitionTable::open(disk_, cmdline_.root_partition);
  if (!rootfs_part.ok()) return rootfs_part.error();

  if (!initrd_.setup_verity || !kernel_.enforce_verity) {
    // Insecure configuration: mount the raw partition. Expressible, and
    // visibly different in the measurement.
    auto mounted = storage::MountedFs::mount(*rootfs_part);
    if (!mounted.ok()) return mounted.error();
    rootfs_ = std::move(*mounted);
    return Status::success();
  }

  if (cmdline_.verity_root_hash_hex.empty()) {
    return Error::make("vm.boot_failed",
                       "verity requested but no root hash on cmdline");
  }
  const auto root_bytes = from_hex(cmdline_.verity_root_hash_hex);
  if (!root_bytes || root_bytes->size() != 32) {
    return Error::make("vm.boot_failed", "malformed verity root hash");
  }
  const auto expected_root = crypto::Digest32::from(*root_bytes);
  // dm-verity hashes data and hash blocks alike, so the root fixes the
  // tree's content but not its shape: the measured block count does. A
  // host that points the rootfs entry at another range (say, the hash
  // blocks of level 0) is refused here, before open.
  if (cmdline_.verity_data_blocks != (*rootfs_part)->block_count()) {
    return Error::make(
        "vm.boot_failed",
        "verity.data_blocks: the cmdline binds " +
            std::to_string(cmdline_.verity_data_blocks) +
            " rootfs blocks, the rootfs partition holds " +
            std::to_string((*rootfs_part)->block_count()));
  }

  auto hash_part =
      storage::PartitionTable::open(disk_, cmdline_.verity_hash_partition);
  if (!hash_part.ok()) return hash_part.error();

  // veritysetup open: prove every hash block against the cmdline root.
  {
    PhaseTimer timer(report, *clock_, "dm-verity setup");
    auto dev = storage::Verity::open(*rootfs_part, *hash_part, expected_root);
    if (!dev.ok()) {
      return Error::make("vm.boot_failed",
                         "verity open: " + dev.error().to_string());
    }
    verity_dev_ = std::move(*dev);
  }
  // Full verification pass before mounting (the boot service the paper
  // times at 4.7 s / 3.3 s in Table 1).
  {
    PhaseTimer timer(report, *clock_, "dm-verity verify");
    if (auto st = verity_dev_->verify_all(); !st.ok()) {
      return Error::make("vm.boot_failed",
                         "rootfs verification: " + st.error().to_string());
    }
  }
  auto mounted = storage::MountedFs::mount(verity_dev_);
  if (!mounted.ok()) return mounted.error();
  rootfs_ = std::move(*mounted);
  return Status::success();
}

Status GuestVm::setup_crypt(BootReport& report) {
  if (!initrd_.setup_crypt) return Status::success();
  if (!kernel_.sev_snp_enabled) {
    return Error::make("vm.boot_failed",
                       "crypt setup requires the SNP guest channel");
  }
  auto data_part = storage::PartitionTable::open(disk_, cmdline_.data_partition);
  if (!data_part.ok()) return data_part.error();

  // Sealing key: measurement-bound, fetched over the protected channel.
  sevsnp::KeyDerivationPolicy policy;
  policy.mix_measurement = true;
  policy.context = "revelio-disk-encryption";
  auto sealing_key = channel_->request_key(policy, 32);
  if (!sealing_key.ok()) return sealing_key.error();

  PhaseTimer timer(report, *clock_, "dm-crypt setup");
  if (storage::CryptVolume::is_formatted(**data_part)) {
    auto dev = storage::CryptVolume::open(*data_part, *sealing_key);
    if (!dev.ok()) {
      return Error::make("vm.boot_failed",
                         "crypt open: " + dev.error().to_string());
    }
    data_volume_ = std::move(*dev);
  } else {
    report.first_boot = true;
    // Salt must be deterministic per measurement for reproducibility; bind
    // it to the measurement rather than wall-clock entropy.
    sevsnp::KeyDerivationPolicy salt_policy;
    salt_policy.mix_measurement = true;
    salt_policy.context = "revelio-disk-salt";
    auto salt = channel_->request_key(salt_policy, 32);
    if (!salt.ok()) return salt.error();
    auto dev = storage::CryptVolume::format(*data_part, *sealing_key, *salt);
    if (!dev.ok()) {
      return Error::make("vm.boot_failed",
                         "crypt format: " + dev.error().to_string());
    }
    data_volume_ = std::move(*dev);
    // First-boot wipe: overwrite the whole volume through the cipher so no
    // stale plaintext survives and the on-disk state is fully encrypted.
    // This is the size-dependent part of the paper's encryption service
    // (611/481 ms for an 84 MB volume, Table 1).
    const Bytes zero_block(data_volume_->block_size(), 0);
    for (std::uint64_t i = 0; i < data_volume_->block_count(); ++i) {
      if (auto st = data_volume_->write_block(i, zero_block); !st.ok()) {
        return st;
      }
    }
  }
  return Status::success();
}

Status GuestVm::start_services(BootReport& report) {
  for (const auto& service : initrd_.services) {
    PhaseTimer timer(report, *clock_, "service:" + service.name);
    if (!service.binary_path.empty() && !rootfs_->exists(service.binary_path)) {
      return Error::make("vm.boot_failed",
                         "service binary missing: " + service.binary_path);
    }
    timer.charge_sim_ms(service.startup_ms);
  }
  return Status::success();
}

Result<BootReport> GuestVm::boot() {
  BootReport report;
  if (booted_) return Error::make("vm.already_booted");

  // Open the guest <-> AMD-SP channel first; crypt setup needs it.
  if (kernel_.sev_snp_enabled) {
    auto channel = sevsnp::GuestChannel::open(*sp_);
    if (!channel.ok()) return channel.error();
    channel_.emplace(std::move(*channel));
  }

  if (auto st = setup_verity(report); !st.ok()) return st.error();
  if (auto st = setup_crypt(report); !st.ok()) return st.error();
  if (auto st = start_services(report); !st.ok()) return st.error();

  booted_ = true;
  return report;
}

bool GuestVm::inbound_allowed(std::uint16_t port) const {
  if (!initrd_.block_inbound_network) return true;
  const std::string port_str = std::to_string(port);
  for (const auto& allowed : initrd_.allowed_inbound_ports) {
    if (allowed == port_str) return true;
  }
  return false;
}

}  // namespace revelio::vm
