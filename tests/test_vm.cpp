#include <gtest/gtest.h>

#include "boot_workloads.hpp"
#include "common/hex.hpp"
#include "crypto/sha2.hpp"
#include "imagebuild/builder.hpp"
#include "storage/dm_verity.hpp"
#include "storage/partition.hpp"
#include "imagebuild/registry.hpp"
#include "obs/metrics.hpp"
#include "vm/hypervisor.hpp"

namespace revelio::vm {
namespace {

using imagebuild::BaseImage;
using imagebuild::BuildInputs;
using imagebuild::BuildOptions;
using imagebuild::ImageBuilder;
using imagebuild::Package;
using imagebuild::PackageRegistry;
using imagebuild::VmImage;

// ------------------------------------------------------------------ blobs

TEST(KernelSpec, SerializeParseRoundTrip) {
  KernelSpec spec;
  spec.version = "6.1.0-custom";
  spec.enforce_verity = false;
  auto parsed = KernelSpec::parse(spec.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, spec);
  EXPECT_FALSE(KernelSpec::parse(to_bytes(std::string_view("junk"))).ok());
}

TEST(InitrdSpec, SerializeParseRoundTrip) {
  InitrdSpec spec;
  spec.block_inbound_network = true;
  spec.allowed_inbound_ports = {"443", "8080"};
  spec.services = {{"nginx", "/usr/sbin/nginx", 250.0},
                   {"app", "/opt/app", 1000.5}};
  auto parsed = InitrdSpec::parse(spec.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, spec);
}

TEST(InitrdSpec, BehaviourChangesChangeBytes) {
  InitrdSpec honest;
  InitrdSpec weakened = honest;
  weakened.setup_verity = false;
  EXPECT_NE(honest.serialize(), weakened.serialize())
      << "any behavioural difference must be measurable";
}

TEST(KernelCmdline, RoundTripWithVerity) {
  KernelCmdline cmdline;
  cmdline.verity_root_hash_hex = std::string(64, 'a');
  cmdline.verity_data_blocks = 4099;
  cmdline.extra["console"] = "ttyS0";
  auto parsed = KernelCmdline::parse(cmdline.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->root_partition, "rootfs");
  EXPECT_EQ(parsed->verity_root_hash_hex, cmdline.verity_root_hash_hex);
  EXPECT_EQ(parsed->verity_data_blocks, 4099u);
  EXPECT_EQ(parsed->extra.at("console"), "ttyS0");
}

TEST(KernelCmdline, ParseRejectsMalformed) {
  EXPECT_FALSE(KernelCmdline::parse("no-equals-token").ok());
  EXPECT_FALSE(KernelCmdline::parse("data=PART=data").ok())
      << "missing root= must be rejected";
  for (const char* count : {"", "-1", "12x", "0x10", "99999999999999999999"}) {
    EXPECT_FALSE(KernelCmdline::parse(std::string("root=PART=rootfs "
                                                  "verity.data_blocks=") +
                                      count)
                     .ok())
        << "verity.data_blocks=" << count;
  }
}

// --------------------------------------------------------------- firmware

TEST(Firmware, SerializeParseRoundTrip) {
  Firmware fw;
  fw.table = FirmwareHashTable::over(to_bytes(std::string_view("k")),
                                     to_bytes(std::string_view("i")),
                                     to_bytes(std::string_view("c")));
  auto parsed = Firmware::parse(fw.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->vendor, fw.vendor);
  EXPECT_EQ(parsed->table, fw.table);
  EXPECT_TRUE(parsed->verify_hash_table);
}

TEST(Firmware, VerifyBlobsDetectsEachMismatch) {
  const Bytes k = to_bytes(std::string_view("kernel"));
  const Bytes i = to_bytes(std::string_view("initrd"));
  const Bytes c = to_bytes(std::string_view("cmdline"));
  Firmware fw;
  fw.table = FirmwareHashTable::over(k, i, c);
  EXPECT_TRUE(fw.verify_blobs(k, i, c).ok());
  EXPECT_FALSE(fw.verify_blobs(to_bytes(std::string_view("evil")), i, c).ok());
  EXPECT_FALSE(fw.verify_blobs(k, to_bytes(std::string_view("evil")), c).ok());
  EXPECT_FALSE(fw.verify_blobs(k, i, to_bytes(std::string_view("evil"))).ok());
}

TEST(Firmware, MaliciousFirmwareSkipsChecksButDiffersInBytes) {
  Firmware honest;
  Firmware malicious;
  malicious.verify_hash_table = false;
  malicious.vendor = honest.vendor;
  EXPECT_TRUE(malicious
                  .verify_blobs(to_bytes(std::string_view("anything")),
                                {}, {})
                  .ok());
  EXPECT_NE(honest.serialize(), malicious.serialize());
}

// -------------------------------------------------------------- imagebuild

struct BuildFixture : ::testing::Test {
  BuildFixture() {
    BaseImage base;
    base.name = "ubuntu";
    base.tag = "20.04";
    Package libc{"libc", "2.31", {{"/lib/libc.so", to_bytes(std::string_view("libc-bits"))}}};
    Package nginx{"nginx", "1.18",
                  {{"/usr/sbin/nginx", to_bytes(std::string_view("nginx-bits"))}}};
    base.packages = {libc, nginx};
    base_digest = registry.publish(base);
  }

  BuildInputs default_inputs() {
    BuildInputs inputs;
    inputs.service_files["/opt/service/app"] =
        to_bytes(std::string_view("app-binary-v1"));
    inputs.base_image_digest = base_digest;
    inputs.initrd.services = {{"app", "/opt/service/app", 500.0}};
    inputs.initrd.allowed_inbound_ports = {"443"};
    return inputs;
  }

  PackageRegistry registry;
  crypto::Digest32 base_digest;
};

TEST_F(BuildFixture, HermeticBuildIsBitReproducible) {
  ImageBuilder builder(registry);
  BuildOptions opts_a;
  opts_a.wall_clock_us = 111;
  opts_a.build_path = "/home/alice/src";
  BuildOptions opts_b;
  opts_b.wall_clock_us = 999999;
  opts_b.build_path = "/tmp/ci-7331";
  auto a = builder.build(default_inputs(), opts_a);
  auto b = builder.build(default_inputs(), opts_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->digest(), b->digest())
      << "hermetic builds must not see wall clock or paths";
  EXPECT_EQ(a->disk_bytes, b->disk_bytes);
}

TEST_F(BuildFixture, NonHermeticBuildDrifts) {
  ImageBuilder builder(registry);
  BuildOptions opts_a;
  opts_a.hermetic = false;
  opts_a.wall_clock_us = 111;
  BuildOptions opts_b;
  opts_b.hermetic = false;
  opts_b.wall_clock_us = 222;
  auto a = builder.build(default_inputs(), opts_a);
  auto b = builder.build(default_inputs(), opts_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->digest() == b->digest())
      << "non-hermetic builds leak timestamps into the image";
}

TEST_F(BuildFixture, SourceChangeChangesDigest) {
  ImageBuilder builder(registry);
  auto a = builder.build(default_inputs());
  BuildInputs changed = default_inputs();
  changed.service_files["/opt/service/app"] =
      to_bytes(std::string_view("app-binary-v2"));
  auto b = builder.build(changed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->digest() == b->digest());
  EXPECT_FALSE(a->verity_root == b->verity_root);
}

TEST_F(BuildFixture, TagPullDriftsDigestPinDoesNot) {
  ImageBuilder builder(registry);
  BuildInputs by_tag = default_inputs();
  by_tag.base_image_digest.reset();  // pull ubuntu:20.04 by tag
  auto before = builder.build(by_tag);
  ASSERT_TRUE(before.ok());

  // Upstream republishes the tag with a newer package.
  BaseImage updated;
  updated.name = "ubuntu";
  updated.tag = "20.04";
  updated.packages = {{"libc", "2.32",
                       {{"/lib/libc.so", to_bytes(std::string_view("libc-2.32"))}}}};
  registry.publish(updated);

  auto after_tag = builder.build(by_tag);
  ASSERT_TRUE(after_tag.ok());
  EXPECT_FALSE(before->digest() == after_tag->digest())
      << "tag-based pulls drift when upstream republishes";

  auto after_pin = builder.build(default_inputs());
  ASSERT_TRUE(after_pin.ok());
  auto original_pin = builder.build(default_inputs());
  ASSERT_TRUE(original_pin.ok());
  EXPECT_EQ(after_pin->digest(), original_pin->digest())
      << "digest-pinned pulls stay reproducible";
}

TEST_F(BuildFixture, UnknownBaseImageFails) {
  ImageBuilder builder(registry);
  BuildInputs inputs = default_inputs();
  inputs.base_image_digest.reset();
  inputs.base_image_tag = "99.99";
  EXPECT_FALSE(builder.build(inputs).ok());
}

TEST_F(BuildFixture, FirewallPostureLandsInRootfs) {
  ImageBuilder builder(registry);
  auto image = builder.build(default_inputs());
  ASSERT_TRUE(image.ok());
  auto disk = image->instantiate_disk();
  auto rootfs_part = storage::PartitionTable::open(disk, "rootfs");
  ASSERT_TRUE(rootfs_part.ok());
  auto fs = storage::MountedFs::mount(*rootfs_part);
  ASSERT_TRUE(fs.ok());
  auto fw = fs->read_file("/etc/firewall.conf");
  ASSERT_TRUE(fw.ok());
  const std::string text = to_string(*fw);
  EXPECT_NE(text.find("policy=drop-inbound"), std::string::npos);
  EXPECT_NE(text.find("allow=443"), std::string::npos);
}

TEST_F(BuildFixture, InstantiatedDisksAreIndependentCopies) {
  ImageBuilder builder(registry);
  auto image = builder.build(default_inputs());
  ASSERT_TRUE(image.ok());
  const Bytes shipped = image->disk_bytes;
  auto a = image->instantiate_disk();
  auto b = image->instantiate_disk();
  ASSERT_EQ(a->block_count(), image->disk_blocks);
  EXPECT_EQ(a->raw_dump(0, shipped.size()), shipped);
  EXPECT_EQ(a->stats().blocks_written, 0u);

  a->raw_tamper(4096 + 5, 0xff);
  ASSERT_TRUE(a->write_block(2, Bytes(4096, 0xab)).ok());
  EXPECT_EQ(b->raw_dump(0, shipped.size()), shipped);
  EXPECT_EQ(image->disk_bytes, shipped);

  // The rvalue form moves the bytes in: same device, and the image keeps
  // everything but its disk_bytes.
  VmImage owned = *image;
  auto moved = std::move(owned).instantiate_disk();
  EXPECT_EQ(moved->raw_dump(0, shipped.size()), shipped);
  EXPECT_EQ(moved->block_count(), image->disk_blocks);
  EXPECT_TRUE(owned.disk_bytes.empty());
  EXPECT_EQ(owned.cmdline, image->cmdline);
  EXPECT_EQ(owned.kernel_blob, image->kernel_blob);
}

std::vector<storage::PartitionEntry> partitions_of(const VmImage& image) {
  auto disk = image.instantiate_disk();
  auto table = storage::PartitionTable::read_from(*disk);
  EXPECT_TRUE(table.ok());
  return table.ok() ? table->entries() : std::vector<storage::PartitionEntry>{};
}

// SHA-256("partition-uuid" || label || verity root), first 16 bytes.
FixedBytes<16> expected_uuid(std::string_view label,
                             const crypto::Digest32& verity_root) {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("partition-uuid")));
  h.update(to_bytes(label));
  h.update(verity_root.view());
  return FixedBytes<16>::from(h.finish().view().subspan(0, 16));
}

TEST_F(BuildFixture, PartitionUuidsComeFromTheVerityRoot) {
  ImageBuilder builder(registry);
  auto a = builder.build(default_inputs());
  auto again = builder.build(default_inputs());
  BuildInputs changed = default_inputs();
  changed.service_files["/opt/service/app"] =
      to_bytes(std::string_view("app-binary-v2"));  // one byte differs
  auto b = builder.build(changed);
  ASSERT_TRUE(a.ok() && again.ok() && b.ok());

  const auto parts_a = partitions_of(*a);
  const auto parts_again = partitions_of(*again);
  const auto parts_b = partitions_of(*b);
  ASSERT_EQ(parts_a.size(), 3u);
  ASSERT_EQ(parts_again.size(), 3u);
  ASSERT_EQ(parts_b.size(), 3u);
  const char* labels[] = {"rootfs", "verity", "data"};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(labels[i]);
    EXPECT_EQ(parts_a[i].label, labels[i]);
    EXPECT_EQ(parts_a[i].uuid, expected_uuid(labels[i], a->verity_root));
    EXPECT_EQ(parts_b[i].uuid, expected_uuid(labels[i], b->verity_root));
    EXPECT_EQ(parts_a[i].uuid, parts_again[i].uuid)
        << "same inputs, same UUIDs";
    EXPECT_NE(parts_a[i].uuid, parts_b[i].uuid)
        << "a changed rootfs byte changes every UUID";
  }
  EXPECT_NE(parts_a[0].uuid, parts_a[1].uuid);
  EXPECT_NE(parts_a[1].uuid, parts_a[2].uuid);
}

// The CryptPad image's verity root, launch measurement and the SHA-256 of
// its disk past block 0 (the rootfs, verity and data partitions), pinned:
// a change to how the builder lays out or writes the image must leave
// every rootfs byte, the root and the measurement as they are. Only block
// 0, the partition table with its UUIDs, is left out of the pin. The root
// and the verity partition's bytes agree with tools/verity_ref.py over the
// rootfs partition's bytes.
TEST(CryptPadImage, RootfsVerityRootAndMeasurementArePinned) {
  const bench::WorkloadBuild cp(bench::cryptpad_workload());
  auto image = ImageBuilder(cp.registry).build(cp.inputs);
  ASSERT_TRUE(image.ok()) << image.error().to_string();
  EXPECT_EQ(image->disk_blocks, 4326u);
  EXPECT_EQ(to_hex(image->verity_root.view()),
            "3c18f232c5520ba8eccc6a5ce4b639c8"
            "bc540491ae749ec7e9d2c93d9beb6347");
  const auto measurement = Hypervisor::expected_measurement(
      image->kernel_blob, image->initrd_blob, image->cmdline);
  EXPECT_EQ(to_hex(measurement.view()),
            "d9ad916881e4ec2f3fb492b9f9d82861b8e8e4f9eea47acb"
            "10a76308f0d228848defa424d09d05b6db8d88c36ed4ebb1");
  const ByteView past_table = ByteView(image->disk_bytes).subspan(4096);
  EXPECT_EQ(to_hex(crypto::sha256(past_table).view()),
            "09037aa5fd74323d434ae13db670f797"
            "8ad587de6c9a2c309e02cfa2fce203a8");
}

// ------------------------------------------------------- launch + boot

struct LaunchFixture : BuildFixture {
  LaunchFixture()
      : sp(to_bytes(std::string_view("vm-test-platform")),
           sevsnp::TcbVersion{2, 0, 8, 115}),
        hypervisor(sp, clock) {}

  VmImage build_image(BuildInputs inputs) {
    ImageBuilder builder(registry);
    auto image = builder.build(inputs);
    EXPECT_TRUE(image.ok()) << (image.ok() ? "" : image.error().to_string());
    return *image;
  }

  LaunchConfig config_for(const VmImage& image) {
    LaunchConfig config;
    config.kernel_blob = image.kernel_blob;
    config.initrd_blob = image.initrd_blob;
    config.cmdline = image.cmdline;
    config.disk = image.instantiate_disk();
    return config;
  }

  SimClock clock;
  sevsnp::AmdSp sp;
  Hypervisor hypervisor;
};

TEST_F(LaunchFixture, HonestLaunchBootsAndMatchesExpectedMeasurement) {
  const VmImage image = build_image(default_inputs());
  auto guest = hypervisor.launch(config_for(image));
  ASSERT_TRUE(guest.ok()) << guest.error().to_string();

  const auto expected = Hypervisor::expected_measurement(
      image.kernel_blob, image.initrd_blob, image.cmdline);
  EXPECT_EQ((*guest)->measurement(), expected);

  auto report = (*guest)->boot();
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_TRUE(report->first_boot);
  EXPECT_NE(report->find("dm-verity setup"), nullptr);
  EXPECT_NE(report->find("dm-verity verify"), nullptr);
  EXPECT_NE(report->find("dm-crypt setup"), nullptr);
  EXPECT_NE(report->find("service:app"), nullptr);
  EXPECT_TRUE((*guest)->rootfs().exists("/opt/service/app"));
}

TEST_F(LaunchFixture, Attack611WrongKernelRefusedByFirmware) {
  const VmImage image = build_image(default_inputs());
  LaunchConfig config = config_for(image);
  KernelSpec evil;
  evil.enforce_verity = false;
  config.swap_kernel_after_measure = evil.serialize();
  auto guest = hypervisor.launch(config);
  ASSERT_FALSE(guest.ok());
  EXPECT_EQ(guest.error().code, "vm.boot_refused");
}

TEST_F(LaunchFixture, Attack611WrongCmdlineRefusedByFirmware) {
  const VmImage image = build_image(default_inputs());
  LaunchConfig config = config_for(image);
  KernelCmdline forged;
  forged.verity_root_hash_hex = std::string(64, '0');
  config.swap_cmdline_after_measure = forged.to_string();
  EXPECT_FALSE(hypervisor.launch(config).ok());
}

TEST_F(LaunchFixture, Attack611ForgedTableChangesMeasurement) {
  // Host fills the table with hashes of malicious blobs and boots those:
  // the boot succeeds locally, but the measurement no longer equals the
  // reference value a verifier computes.
  const VmImage image = build_image(default_inputs());
  KernelSpec evil_kernel;
  evil_kernel.enforce_verity = false;
  InitrdSpec evil_initrd;
  evil_initrd.setup_verity = false;
  evil_initrd.setup_crypt = false;
  KernelCmdline evil_cmdline;

  LaunchConfig config = config_for(image);
  config.forged_hash_table = FirmwareHashTable::over(
      evil_kernel.serialize(), evil_initrd.serialize(),
      to_bytes(evil_cmdline.to_string()));
  config.swap_kernel_after_measure = evil_kernel.serialize();
  config.swap_initrd_after_measure = evil_initrd.serialize();
  config.swap_cmdline_after_measure = evil_cmdline.to_string();

  auto guest = hypervisor.launch(config);
  ASSERT_TRUE(guest.ok()) << "locally the forged launch boots";
  const auto expected = Hypervisor::expected_measurement(
      image.kernel_blob, image.initrd_blob, image.cmdline);
  EXPECT_FALSE((*guest)->measurement() == expected)
      << "but the measurement betrays the forgery";
}

TEST_F(LaunchFixture, Attack611MaliciousFirmwareChangesMeasurement) {
  const VmImage image = build_image(default_inputs());
  LaunchConfig config = config_for(image);
  config.use_malicious_firmware = true;
  KernelSpec evil;
  evil.enforce_verity = false;
  config.swap_kernel_after_measure = evil.serialize();
  auto guest = hypervisor.launch(config);
  ASSERT_TRUE(guest.ok()) << "the no-verify firmware boots anything";
  const auto expected = Hypervisor::expected_measurement(
      image.kernel_blob, image.initrd_blob, image.cmdline);
  EXPECT_FALSE((*guest)->measurement() == expected);
}

TEST_F(LaunchFixture, Attack612TamperedRootfsFailsBoot) {
  const VmImage image = build_image(default_inputs());
  LaunchConfig config = config_for(image);
  // Flip one bit somewhere inside the rootfs partition (after block 0).
  config.disk->raw_tamper(4096 * 3 + 1000, 0x01);
  auto guest = hypervisor.launch(config);
  ASSERT_TRUE(guest.ok()) << "measurement covers blobs, not the disk";
  auto report = (*guest)->boot();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, "vm.boot_failed");
}

TEST_F(LaunchFixture, LevelConfusionFailsClosedOnTheMeasuredBlockCount) {
  // dm-verity hashes data and hash blocks alike, so the cmdline root binds
  // the tree's content but not its shape. The CryptPad image's hash
  // partition is its top block followed by level 0's 33 blocks. The host
  // rewrites the unmeasured partition table: the rootfs entry now covers
  // level 0, and the verity entry the top block alone, which is a
  // one-level hash device over those 33 blocks with the cmdline's root.
  const bench::WorkloadBuild cp(bench::cryptpad_workload());
  auto image = ImageBuilder(cp.registry).build(cp.inputs);
  ASSERT_TRUE(image.ok()) << image.error().to_string();
  LaunchConfig config = config_for(*image);
  auto table = storage::PartitionTable::read_from(*config.disk);
  ASSERT_TRUE(table.ok());
  const auto verity = table->find("verity");
  const auto data = table->find("data");
  ASSERT_TRUE(verity.ok() && data.ok());
  ASSERT_EQ(verity->block_count, 34u);
  storage::PartitionTable forged;
  forged.add("unused", {}, verity->first_block - 1);
  forged.add("verity", {}, 1);
  forged.add("rootfs", {}, 33);
  forged.add("data", {}, data->block_count);
  ASSERT_EQ(forged.find("data")->first_block, data->first_block);
  ASSERT_TRUE(forged.write_to(*config.disk).ok());

  // Verity::open goes by the data device's size alone, and this one opens.
  auto rootfs_part = storage::PartitionTable::open(config.disk, "rootfs");
  auto hash_part = storage::PartitionTable::open(config.disk, "verity");
  ASSERT_TRUE(rootfs_part.ok() && hash_part.ok());
  ASSERT_TRUE(
      storage::Verity::open(*rootfs_part, *hash_part, image->verity_root).ok());

  auto guest = hypervisor.launch(config);
  ASSERT_TRUE(guest.ok())
      << "the measurement covers the cmdline, not the table";
  auto report = (*guest)->boot();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, "vm.boot_failed");
  EXPECT_NE(report.error().detail.find("verity.data_blocks"), std::string::npos)
      << report.error().to_string();
}

TEST_F(LaunchFixture, Attack613RuntimeTamperBreaksReads) {
  const VmImage image = build_image(default_inputs());
  LaunchConfig config = config_for(image);
  auto disk = config.disk;
  auto guest = hypervisor.launch(config);
  ASSERT_TRUE(guest.ok());
  ASSERT_TRUE((*guest)->boot().ok());
  // Runtime modification of the app binary on the host disk.
  ASSERT_TRUE((*guest)->rootfs().read_file("/opt/service/app").ok());
  const auto entry = (*guest)->rootfs().directory().at("/opt/service/app");
  // The mounted fs sits on the rootfs partition; its offsets are partition-
  // relative. Partition starts at block 1 of the raw disk.
  disk->raw_tamper(4096 + entry.offset, 0x80);
  EXPECT_FALSE((*guest)->rootfs().read_file("/opt/service/app").ok())
      << "dm-verity must fail reads of the tampered binary";
}

TEST_F(LaunchFixture, SealedVolumeSurvivesRebootOfSameImage) {
  const VmImage image = build_image(default_inputs());
  auto disk = image.instantiate_disk();

  LaunchConfig config = config_for(image);
  config.disk = disk;
  auto guest = hypervisor.launch(config);
  ASSERT_TRUE(guest.ok());
  auto report = (*guest)->boot();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->first_boot);
  // Write a secret into the sealed volume.
  const Bytes secret(4096, 0x5e);
  ASSERT_TRUE((*guest)->data_volume()->write_block(0, secret).ok());

  // Power cycle: same disk, same image.
  sp.launch_reset();
  LaunchConfig config2 = config_for(image);
  config2.disk = disk;
  auto guest2 = hypervisor.launch(config2);
  ASSERT_TRUE(guest2.ok());
  auto report2 = (*guest2)->boot();
  ASSERT_TRUE(report2.ok());
  EXPECT_FALSE(report2->first_boot);
  Bytes back(4096);
  ASSERT_TRUE((*guest2)->data_volume()->read_block(0, back).ok());
  EXPECT_EQ(back, secret);
}

TEST_F(LaunchFixture, SealedVolumeUnreadableByDifferentImage) {
  const VmImage image = build_image(default_inputs());
  auto disk = image.instantiate_disk();
  {
    LaunchConfig config = config_for(image);
    config.disk = disk;
    auto guest = hypervisor.launch(config);
    ASSERT_TRUE(guest.ok());
    ASSERT_TRUE((*guest)->boot().ok());
    ASSERT_TRUE(
        (*guest)->data_volume()->write_block(0, Bytes(4096, 0x5e)).ok());
  }
  sp.launch_reset();

  // A different (e.g. backdoored) image on the same platform cannot unseal.
  BuildInputs changed = default_inputs();
  changed.service_files["/opt/service/app"] =
      to_bytes(std::string_view("backdoored"));
  const VmImage other = build_image(changed);
  // Attacker keeps the victim's data partition: graft the other image's
  // boot chain onto the original disk.
  LaunchConfig config;
  config.kernel_blob = other.kernel_blob;
  config.initrd_blob = other.initrd_blob;
  config.cmdline = other.cmdline;
  // Disk contents are the other image's rootfs but the original data
  // partition — approximate by reusing the other disk and copying the
  // sealed partition across.
  auto other_disk = other.instantiate_disk();
  {
    auto src = storage::PartitionTable::open(disk, "data");
    auto dst = storage::PartitionTable::open(other_disk, "data");
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(dst.ok());
    Bytes block(4096);
    for (std::uint64_t i = 0; i < (*src)->block_count(); ++i) {
      ASSERT_TRUE((*src)->read_block(i, block).ok());
      ASSERT_TRUE((*dst)->write_block(i, block).ok());
    }
  }
  config.disk = other_disk;
  auto guest = hypervisor.launch(config);
  ASSERT_TRUE(guest.ok());
  auto report = (*guest)->boot();
  ASSERT_FALSE(report.ok())
      << "measurement-derived key must not unseal foreign data";
  EXPECT_EQ(report.error().code, "vm.boot_failed");
}

TEST_F(LaunchFixture, FirewallPostureEnforced) {
  const VmImage image = build_image(default_inputs());
  auto guest = hypervisor.launch(config_for(image));
  ASSERT_TRUE(guest.ok());
  EXPECT_TRUE((*guest)->inbound_allowed(443));
  EXPECT_FALSE((*guest)->inbound_allowed(22)) << "ssh must be blocked";
  EXPECT_FALSE((*guest)->inbound_allowed(8080));
}

TEST_F(LaunchFixture, MissingServiceBinaryFailsBoot) {
  BuildInputs inputs = default_inputs();
  inputs.initrd.services.push_back({"ghost", "/bin/ghost", 10.0});
  const VmImage image = build_image(inputs);
  auto guest = hypervisor.launch(config_for(image));
  ASSERT_TRUE(guest.ok());
  auto report = (*guest)->boot();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, "vm.boot_failed");
}

TEST_F(LaunchFixture, BootChargesServiceStartupToSimClock) {
  BuildInputs inputs = default_inputs();
  inputs.initrd.services = {{"app", "/opt/service/app", 750.0}};
  const VmImage image = build_image(inputs);
  auto guest = hypervisor.launch(config_for(image));
  ASSERT_TRUE(guest.ok());
  const auto before = clock.now_us();
  auto report = (*guest)->boot();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(clock.now_us() - before, 750'000u);
  EXPECT_GE(report->total_sim_ms(), 750.0);
}

TEST_F(LaunchFixture, BoundaryNodeBootReadsNoServiceBlock) {
  // The Boundary Node's service list (bench_boot_latency's shape): six
  // services start one large binary, four start nginx.
  BuildInputs inputs = default_inputs();
  Bytes payload(2 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  inputs.service_files = {{"/srv/app/service", std::move(payload)}};
  inputs.initrd.services = {{"systemd-networkd", "/usr/sbin/nginx", 18.0},
                            {"chrony", "/usr/sbin/nginx", 9.0},
                            {"ic-registry-replicator", "/srv/app/service", 22.0},
                            {"ic-boundary", "/srv/app/service", 25.0},
                            {"icx-proxy", "/srv/app/service", 15.0},
                            {"nginx", "/usr/sbin/nginx", 12.0},
                            {"unbound", "/usr/sbin/nginx", 8.0},
                            {"prometheus-node-exporter", "/srv/app/service", 7.0},
                            {"filebeat", "/srv/app/service", 9.0},
                            {"danted", "/srv/app/service", 8.0}};
  const VmImage image = build_image(inputs);
  const auto reads = [] {
    return obs::metrics().counter_value("storage.verity_read.block.count");
  };

  // What mounting the rootfs reads, measured on a separate verity view.
  auto disk = image.instantiate_disk();
  auto rootfs_part = storage::PartitionTable::open(disk, "rootfs");
  auto hash_part = storage::PartitionTable::open(disk, "verity");
  ASSERT_TRUE(rootfs_part.ok() && hash_part.ok());
  const std::uint64_t sweep_blocks = (*rootfs_part)->block_count();
  auto view = storage::Verity::open(*rootfs_part, *hash_part, image.verity_root);
  ASSERT_TRUE(view.ok());
  const auto mount0 = reads();
  ASSERT_TRUE(storage::MountedFs::mount(*view).ok());
  const std::uint64_t mount_reads = reads() - mount0;
  EXPECT_GT(mount_reads, 0u);

  auto guest = hypervisor.launch(config_for(image));
  ASSERT_TRUE(guest.ok());
  const auto boot0 = reads();
  ASSERT_TRUE((*guest)->boot().ok());
  // Exact, zero tolerance: the verify_all sweep plus the directory reads.
  // Starting a service reads none of its binary's blocks (reading them
  // would add 512 per large-binary service here).
  EXPECT_EQ(reads() - boot0, sweep_blocks + mount_reads);
}

TEST_F(LaunchFixture, DoubleBootRejected) {
  const VmImage image = build_image(default_inputs());
  auto guest = hypervisor.launch(config_for(image));
  ASSERT_TRUE(guest.ok());
  ASSERT_TRUE((*guest)->boot().ok());
  EXPECT_FALSE((*guest)->boot().ok());
}

}  // namespace
}  // namespace revelio::vm
