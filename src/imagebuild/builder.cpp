#include "imagebuild/builder.hpp"

#include "common/hex.hpp"
#include "storage/dm_verity.hpp"
#include "storage/partition.hpp"

namespace revelio::imagebuild {

namespace {

constexpr std::size_t kBlockSize = 4096;

FixedBytes<16> uuid_from_content(ByteView content, std::string_view label) {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("partition-uuid")));
  h.update(to_bytes(label));
  h.update(content);
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

  const Bytes rootfs_bytes = rootfs.serialize(kBlockSize);
  const std::uint64_t rootfs_blocks = rootfs_bytes.size() / kBlockSize;

  // Size the hash device: tree is < 2x leaf digests plus headers.
  std::uint64_t verity_blocks = inputs.verity_partition_blocks;
  if (verity_blocks == 0) {
    const std::uint64_t tree_bytes = rootfs_blocks * 32 * 2 + 4096;
    verity_blocks = tree_bytes / kBlockSize + 2;
  }

  // ---- Partitioned disk layout.
  storage::PartitionTable table;
  table.add("rootfs", uuid_from_content(rootfs_bytes, "rootfs"),
            rootfs_blocks);
  table.add("verity", uuid_from_content(rootfs_bytes, "verity"),
            verity_blocks);
  table.add("data", uuid_from_content(rootfs_bytes, "data"),
            inputs.data_partition_blocks);

  const std::uint64_t total_blocks = table.blocks_used();
  auto disk = std::make_shared<storage::MemDisk>(kBlockSize, total_blocks);
  if (auto st = table.write_to(*disk); !st.ok()) return st.error();

  auto rootfs_part = storage::PartitionTable::open(disk, "rootfs");
  if (!rootfs_part.ok()) return rootfs_part.error();
  if (auto st = (*rootfs_part)->write(0, rootfs_bytes); !st.ok()) {
    return st.error();
  }

  // ---- dm-verity metadata over the finished rootfs (§5.1.2).
  auto verity_part = storage::PartitionTable::open(disk, "verity");
  if (!verity_part.ok()) return verity_part.error();
  auto meta = storage::Verity::format(**rootfs_part, **verity_part);
  if (!meta.ok()) return meta.error();

  // ---- Assemble the shippable image.
  VmImage image;
  image.kernel_blob = inputs.kernel.serialize();
  image.initrd_blob = inputs.initrd.serialize();

  vm::KernelCmdline cmdline;
  if (inputs.initrd.setup_verity) {
    cmdline.verity_root_hash_hex = to_hex(meta->root_hash.view());
  }
  image.cmdline = cmdline.to_string();
  image.verity_root = meta->root_hash;
  image.disk_blocks = total_blocks;
  image.disk_bytes = std::move(*disk).take_contents();
  return image;
}

}  // namespace revelio::imagebuild
