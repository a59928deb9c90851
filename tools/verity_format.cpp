// Formats a data image as a dm-verity hash device, like
// `veritysetup format --salt=- --no-superblock`.
//
//   verity_format <data-image> <hash-image-out>
//
// Reads the data image (a whole number of 4 KiB blocks), writes the hash
// blocks Verity::format lays out (4 KiB, top level first, sized exactly
// from the data block count) to <hash-image-out>, and prints one line:
//
//   root=<hex> data_blocks=<n> hash_blocks=<h>
//
// tools/verity_ref.py --check runs it against an independent Python
// reference of the kernel format.
//
// Exit codes: 0 formatted; 1 format failed; 2 usage or I/O errors.
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/hex.hpp"
#include "storage/dm_verity.hpp"
#include "storage/mem_disk.hpp"

namespace {

using namespace revelio;

constexpr std::size_t kBlockSize = 4096;

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: verity_format <data-image> <hash-image-out>\n");
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", argv[1]);
    return 2;
  }
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  if (data.size() % kBlockSize != 0) {
    std::fprintf(stderr, "%s is not a whole number of %zu-byte blocks\n",
                 argv[1], kBlockSize);
    return 2;
  }
  const std::uint64_t data_blocks = data.size() / kBlockSize;
  storage::MemDisk data_dev(kBlockSize, std::move(data));
  storage::MemDisk hash_dev(kBlockSize,
                            storage::Verity::hash_block_count(data_blocks));
  const auto meta = storage::Verity::format(data_dev, hash_dev);
  if (!meta.ok()) {
    std::fprintf(stderr, "FAIL %s\n", meta.error().to_string().c_str());
    return 1;
  }

  std::ofstream out(argv[2], std::ios::binary);
  const Bytes hash = std::move(hash_dev).take_contents();
  out.write(reinterpret_cast<const char*>(hash.data()),
            static_cast<std::streamsize>(hash.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[2]);
    return 2;
  }
  std::printf("root=%s data_blocks=%llu hash_blocks=%llu\n",
              to_hex(meta->root_hash.view()).c_str(),
              static_cast<unsigned long long>(data_blocks),
              static_cast<unsigned long long>(hash.size() / kBlockSize));
  return 0;
}
