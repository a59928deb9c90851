#include "imagebuild/builder.hpp"

#include "common/hex.hpp"
#include "storage/dm_verity.hpp"
#include "storage/partition.hpp"

namespace revelio::imagebuild {

namespace {

constexpr std::size_t kBlockSize = 4096;

// Fixed partition UUIDs (§5.1.1), bound to the rootfs content through the
// verity root, which already hashes every rootfs block.
FixedBytes<16> partition_uuid(std::string_view label,
                              const crypto::Digest32& verity_root) {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("partition-uuid")));
  h.update(to_bytes(label));
  h.update(verity_root.view());
  return FixedBytes<16>::from(h.finish().view().subspan(0, 16));
}

}  // namespace

crypto::Digest32 VmImage::digest() const {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("vm-image-v1")));
  auto field = [&h](ByteView v) {
    Bytes len;
    append_u64be(len, v.size());
    h.update(len);
    h.update(v);
  };
  field(kernel_blob);
  field(initrd_blob);
  field(to_bytes(cmdline));
  field(disk_bytes);
  return h.finish();
}

// disk_bytes covers the whole device (disk_blocks blocks) by construction.
std::shared_ptr<storage::MemDisk> VmImage::instantiate_disk() const& {
  return std::make_shared<storage::MemDisk>(kBlockSize, Bytes(disk_bytes));
}

std::shared_ptr<storage::MemDisk> VmImage::instantiate_disk() && {
  return std::make_shared<storage::MemDisk>(kBlockSize, std::move(disk_bytes));
}

Result<VmImage> ImageBuilder::build(const BuildInputs& inputs,
                                    const BuildOptions& options) const {
  // ---- Stage 1: builder container pulls the dependency base image.
  Result<BaseImage> base = inputs.base_image_digest
                               ? registry_->pull_by_digest(*inputs.base_image_digest)
                               : registry_->pull_by_tag(inputs.base_image_name,
                                                        inputs.base_image_tag);
  if (!base.ok()) return base.error();

  // ---- Stage 2: assemble the final rootfs from runtime files only.
  storage::ImageFs rootfs;
  for (const auto& pkg : base->packages) {
    for (const auto& [path, content] : pkg.files) {
      rootfs.add_file(path, content);
    }
  }
  for (const auto& [path, content] : inputs.service_files) {
    rootfs.add_file(path, content, 0755);
  }

  // Network posture is part of the rootfs (§5.1.3), hence measured.
  {
    std::string fw = inputs.initrd.block_inbound_network
                         ? "policy=drop-inbound\n"
                         : "policy=accept-inbound\n";
    for (const auto& port : inputs.initrd.allowed_inbound_ports) {
      fw += "allow=" + port + "\n";
    }
    rootfs.add_file("/etc/firewall.conf", to_bytes(fw));
  }

  if (options.hermetic) {
    // Scrub the classic non-determinism carriers the paper lists.
    rootfs.remove_file("/var/lib/apt/lists/cache");
    rootfs.remove_file("/var/lib/dbus/machine-id");
  } else {
    // A careless pipeline leaks wall clock, paths and machine identity
    // into the image.
    std::string info = "built_at_us=" + std::to_string(options.wall_clock_us) +
                       "\nbuild_path=" + options.build_path + "\n";
    rootfs.add_file("/var/lib/build-info", to_bytes(info));
    Bytes machine_id;
    append_u64be(machine_id, options.wall_clock_us ^ 0x5deece66dULL);
    rootfs.add_file("/var/lib/dbus/machine-id", machine_id);
  }

  const std::uint64_t rootfs_size = rootfs.serialized_size(kBlockSize);
  const std::uint64_t rootfs_blocks = rootfs_size / kBlockSize;

  // ---- Partitioned disk layout. The UUIDs follow from the verity root, so
  // the table is written to block 0 once dm-verity has run.
  storage::PartitionTable table;
  const std::size_t rootfs_index = table.add("rootfs", {}, rootfs_blocks);
  table.add("verity", {}, storage::Verity::hash_block_count(rootfs_blocks));
  table.add("data", {}, inputs.data_partition_blocks);

  // One disk buffer: the rootfs is serialized straight into its partition.
  const std::uint64_t total_blocks = table.blocks_used();
  Bytes disk_bytes(static_cast<std::size_t>(total_blocks * kBlockSize), 0);
  const auto rootfs_range = std::span(disk_bytes).subspan(
      static_cast<std::size_t>(table.entries()[rootfs_index].first_block *
                               kBlockSize),
      static_cast<std::size_t>(rootfs_size));
  if (auto st = rootfs.serialize_into(rootfs_range, kBlockSize); !st.ok()) {
    return st.error();
  }
  auto disk = std::make_shared<storage::MemDisk>(kBlockSize,
                                                 std::move(disk_bytes));

  // ---- dm-verity metadata over the finished rootfs (§5.1.2).
  auto rootfs_part = table.slice(disk, "rootfs");
  if (!rootfs_part.ok()) return rootfs_part.error();
  auto verity_part = table.slice(disk, "verity");
  if (!verity_part.ok()) return verity_part.error();
  auto meta = storage::Verity::format(**rootfs_part, **verity_part);
  if (!meta.ok()) return meta.error();

  for (std::size_t i = 0; i < table.entries().size(); ++i) {
    table.set_uuid(i, partition_uuid(table.entries()[i].label,
                                     meta->root_hash));
  }
  if (auto st = table.write_to(*disk); !st.ok()) return st.error();

  // ---- Assemble the shippable image.
  VmImage image;
  image.kernel_blob = inputs.kernel.serialize();
  image.initrd_blob = inputs.initrd.serialize();

  vm::KernelCmdline cmdline;
  if (inputs.initrd.setup_verity) {
    cmdline.verity_root_hash_hex = to_hex(meta->root_hash.view());
    cmdline.verity_data_blocks = meta->data_block_count;
  }
  image.cmdline = cmdline.to_string();
  image.verity_root = meta->root_hash;
  image.disk_blocks = total_blocks;
  image.disk_bytes = std::move(*disk).take_contents();
  return image;
}

}  // namespace revelio::imagebuild
