// Deterministic VM image builder (§5.1).
//
// Two-stage build in the spirit of the paper's docker pipeline: a builder
// stage pulls the pinned base image (dependencies), a final stage assembles
// only the runtime files. In hermetic mode every non-determinism source is
// scrubbed — timestamps squashed, partition UUIDs derived from the rootfs's
// dm-verity root, volatile files cleared — so one set of inputs yields one
// bit-exact image and therefore one launch measurement (F5). Non-hermetic
// mode deliberately injects the classic noise (wall clock, build path,
// machine-id) so tests and benches can demonstrate why hermeticity matters.
#pragma once

#include <memory>
#include <optional>

#include "imagebuild/registry.hpp"
#include "storage/imagefs.hpp"
#include "storage/mem_disk.hpp"
#include "vm/blobs.hpp"

namespace revelio::imagebuild {

struct BuildInputs {
  // Service artefacts from the provider's CI (path -> content).
  std::map<std::string, Bytes> service_files;

  // Dependency base image. If `base_image_digest` is set the pull is
  // pinned; otherwise the (mutable) tag is used.
  std::string base_image_name = "ubuntu";
  std::string base_image_tag = "20.04";
  std::optional<crypto::Digest32> base_image_digest;

  vm::KernelSpec kernel;
  vm::InitrdSpec initrd;

  // Sizing of the encrypted data partition (4 KiB blocks). The verity hash
  // partition is sized exactly from the rootfs.
  std::uint64_t data_partition_blocks = 32;
};

struct BuildOptions {
  bool hermetic = true;
  // Only consulted in non-hermetic mode (the noise sources).
  std::uint64_t wall_clock_us = 0;
  std::string build_path = "/home/ci/workspace";
};

/// The shippable artefact: everything the cloud provider receives.
struct VmImage {
  Bytes kernel_blob;
  Bytes initrd_blob;
  std::string cmdline;
  Bytes disk_bytes;               // partitioned disk (rootfs/verity/data)
  crypto::Digest32 verity_root;   // also embedded in cmdline
  std::uint64_t disk_blocks = 0;

  /// Digest over all shipped artefacts — what a rebuild must reproduce.
  crypto::Digest32 digest() const;

  /// Materializes the disk as a fresh device (one per VM instance) with one
  /// copy of disk_bytes; the rvalue form moves disk_bytes in instead and
  /// leaves the rest of the image as it was.
  std::shared_ptr<storage::MemDisk> instantiate_disk() const&;
  std::shared_ptr<storage::MemDisk> instantiate_disk() &&;
};

class ImageBuilder {
 public:
  explicit ImageBuilder(const PackageRegistry& registry)
      : registry_(&registry) {}

  Result<VmImage> build(const BuildInputs& inputs,
                        const BuildOptions& options = {}) const;

 private:
  const PackageRegistry* registry_;
};

}  // namespace revelio::imagebuild
