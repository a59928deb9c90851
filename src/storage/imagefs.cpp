#include "storage/imagefs.hpp"

#include <algorithm>

namespace revelio::storage {

namespace {
constexpr std::uint32_t kMagic = 0x52494653;  // "RIFS"
// Fixed epoch stamped into every image: one of the reproducibility measures
// ("squashing all timestamps", §5.1.1).
constexpr std::uint64_t kBuildEpoch = 1672531200;  // 2023-01-01T00:00:00Z

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}
}  // namespace

void ImageFs::add_file(const std::string& path, Bytes content,
                       std::uint32_t mode) {
  files_[path] = FileInfo{mode, std::move(content)};
}

Result<Bytes> ImageFs::read_file(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return Error::make("imagefs.not_found", path);
  return it->second.content;
}

std::vector<std::string> ImageFs::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, info] : files_) out.push_back(path);
  return out;
}

namespace {

// File data starts at the first block boundary after the header and the
// directory.
std::uint64_t data_start(const std::map<std::string, ImageFs::FileInfo>& files,
                         std::size_t block_size) {
  std::uint64_t dir_size = 4 + 8 + 4;
  for (const auto& [path, info] : files) {
    dir_size += 4 + path.size() + 4 + 8 + 8;
  }
  return align_up(dir_size, block_size);
}

}  // namespace

std::uint64_t ImageFs::serialized_size(std::size_t block_size) const {
  std::uint64_t end = data_start(files_, block_size);
  for (const auto& [path, info] : files_) {
    end = align_up(end + info.content.size(), block_size);
  }
  return end;
}

Status ImageFs::serialize_into(std::span<std::uint8_t> out,
                               std::size_t block_size) const {
  if (out.size() != serialized_size(block_size)) {
    return Error::make("imagefs.bad_buffer", "buffer size differs from image");
  }
  // Directory with final offsets, then block-aligned file data; every gap
  // is zeroed.
  const std::uint64_t start = data_start(files_, block_size);
  Bytes dir;
  dir.reserve(static_cast<std::size_t>(start));
  append_u32be(dir, kMagic);
  append_u64be(dir, kBuildEpoch);
  append_u32be(dir, static_cast<std::uint32_t>(files_.size()));
  std::uint64_t offset = start;
  for (const auto& [path, info] : files_) {
    append_u32be(dir, static_cast<std::uint32_t>(path.size()));
    append(dir, path);
    append_u32be(dir, info.mode);
    append_u64be(dir, offset);
    append_u64be(dir, info.content.size());
    offset = align_up(offset + info.content.size(), block_size);
  }
  auto at = [&out](std::uint64_t off) {
    return out.begin() + static_cast<std::ptrdiff_t>(off);
  };
  std::copy(dir.begin(), dir.end(), out.begin());
  std::fill(at(dir.size()), at(start), 0);

  offset = start;
  for (const auto& [path, info] : files_) {
    const std::uint64_t end = offset + info.content.size();
    const std::uint64_t next = align_up(end, block_size);
    std::copy(info.content.begin(), info.content.end(), at(offset));
    std::fill(at(end), at(next), 0);
    offset = next;
  }
  return Status::success();
}

Bytes ImageFs::serialize(std::size_t block_size) const {
  Bytes image(static_cast<std::size_t>(serialized_size(block_size)));
  serialize_into(image, block_size);  // sized above, so it cannot fail
  return image;
}

Result<ImageFs> ImageFs::parse(ByteView image) {
  if (image.size() < 16 || read_u32be(image, 0) != kMagic) {
    return Error::make("imagefs.bad_magic");
  }
  const std::uint32_t count = read_u32be(image, 12);
  std::size_t off = 16;
  ImageFs fs;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (off + 4 > image.size()) return Error::make("imagefs.truncated");
    const std::uint32_t path_len = read_u32be(image, off);
    off += 4;
    if (off + path_len + 4 + 8 + 8 > image.size()) {
      return Error::make("imagefs.truncated");
    }
    const std::string path(image.begin() + static_cast<std::ptrdiff_t>(off),
                           image.begin() +
                               static_cast<std::ptrdiff_t>(off + path_len));
    off += path_len;
    const std::uint32_t mode = read_u32be(image, off);
    off += 4;
    const std::uint64_t file_off = read_u64be(image, off);
    off += 8;
    const std::uint64_t size = read_u64be(image, off);
    off += 8;
    if (file_off + size > image.size()) {
      return Error::make("imagefs.bad_extent", path);
    }
    fs.add_file(path,
                to_bytes(image.subspan(file_off, static_cast<std::size_t>(size))),
                mode);
  }
  return fs;
}

Result<MountedFs> MountedFs::mount(std::shared_ptr<BlockDevice> device) {
  // Read the header, then exactly the directory bytes.
  auto head = device->read(0, 16);
  if (!head.ok()) return head.error();
  if (read_u32be(*head, 0) != kMagic) {
    return Error::make("imagefs.bad_magic", "mount failed");
  }
  const std::uint32_t count = read_u32be(*head, 12);

  MountedFs fs;
  fs.device_ = device;
  std::uint64_t off = 16;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto len_buf = device->read(off, 4);
    if (!len_buf.ok()) return len_buf.error();
    const std::uint32_t path_len = read_u32be(*len_buf, 0);
    auto rest = device->read(off + 4, path_len + 4 + 8 + 8);
    if (!rest.ok()) return rest.error();
    const std::string path(rest->begin(),
                           rest->begin() + static_cast<std::ptrdiff_t>(path_len));
    DirEntry entry;
    entry.mode = read_u32be(*rest, path_len);
    entry.offset = read_u64be(*rest, path_len + 4);
    entry.size = read_u64be(*rest, path_len + 12);
    if (entry.offset + entry.size > device->size_bytes()) {
      return Error::make("imagefs.bad_extent", path);
    }
    fs.dir_[path] = entry;
    off += 4 + path_len + 4 + 8 + 8;
  }
  return fs;
}

Result<Bytes> MountedFs::read_file(const std::string& path) const {
  const auto it = dir_.find(path);
  if (it == dir_.end()) return Error::make("imagefs.not_found", path);
  return device_->read(it->second.offset,
                       static_cast<std::size_t>(it->second.size));
}

bool MountedFs::exists(const std::string& path) const {
  return dir_.count(path) > 0;
}

std::vector<std::string> MountedFs::list() const {
  std::vector<std::string> out;
  out.reserve(dir_.size());
  for (const auto& [path, entry] : dir_) out.push_back(path);
  return out;
}

}  // namespace revelio::storage
