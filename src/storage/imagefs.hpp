// Read-only image filesystem.
//
// A deliberately simple squashfs stand-in: a sorted directory of
// (path, mode, offset, size) entries followed by block-aligned file data.
// Serialization is canonical — entries sorted by path, a fixed build
// timestamp, no incidental ordering — so identical inputs produce a
// bit-identical image (requirement F5). `MountedFs` reads files through a
// BlockDevice, which is how per-file reads pick up dm-verity's per-block
// verification cost (Fig 6).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "storage/block_device.hpp"

namespace revelio::storage {

/// Builder + in-memory reader.
class ImageFs {
 public:
  struct FileInfo {
    std::uint32_t mode = 0644;
    Bytes content;
  };

  /// Adds or replaces a file. Paths are absolute ("/etc/nginx.conf").
  void add_file(const std::string& path, Bytes content,
                std::uint32_t mode = 0644);

  void remove_file(const std::string& path) { files_.erase(path); }

  bool exists(const std::string& path) const {
    return files_.count(path) > 0;
  }
  Result<Bytes> read_file(const std::string& path) const;
  std::vector<std::string> list() const;
  std::size_t file_count() const { return files_.size(); }

  /// Canonical serialization, padded to a whole number of `block_size`
  /// blocks; file data starts block-aligned.
  Bytes serialize(std::size_t block_size = 4096) const;

  /// Size in bytes of the serialization: a whole number of blocks.
  std::uint64_t serialized_size(std::size_t block_size = 4096) const;

  /// Writes the serialization into `out`, every byte of it (padding is
  /// zeroed), so an image can be built in place inside a larger buffer.
  /// Fails with imagefs.bad_buffer unless out.size() == serialized_size().
  Status serialize_into(std::span<std::uint8_t> out,
                        std::size_t block_size = 4096) const;

  static Result<ImageFs> parse(ByteView image);

 private:
  std::map<std::string, FileInfo> files_;  // map => canonical path order
};

/// File access over a block device without loading the whole image: only the
/// directory is read eagerly; file reads hit exactly the blocks that hold
/// the file.
class MountedFs {
 public:
  static Result<MountedFs> mount(std::shared_ptr<BlockDevice> device);

  Result<Bytes> read_file(const std::string& path) const;
  bool exists(const std::string& path) const;
  std::vector<std::string> list() const;

  struct DirEntry {
    std::uint32_t mode = 0;
    std::uint64_t offset = 0;  // byte offset within the device
    std::uint64_t size = 0;
  };

  const std::map<std::string, DirEntry>& directory() const { return dir_; }

 private:
  std::shared_ptr<BlockDevice> device_;
  std::map<std::string, DirEntry> dir_;
};

}  // namespace revelio::storage
