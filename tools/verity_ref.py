#!/usr/bin/env python3
"""Independent reference for dm-verity's hash-device format.

Written from the kernel's Documentation/admin-guide/device-mapper/verity.rst
and dm-verity-target.c's layout, with Python's hashlib, for format version 1
with an empty salt and no superblock (`veritysetup format --salt=-
--no-superblock`):

- every digest is SHA-256(salt || block) of one whole block;
- the data blocks' digests are packed into hash blocks, hash_block_size / 32
  to a block, the last one zero-padded: level 0;
- each level above packs the digests of the level below's hash blocks the
  same way, until a level is a single block;
- the root is that block's digest; a single data block has no hash blocks
  and its own digest is the root;
- levels are stored top level first (hash_level_block[levels - 1] comes
  first on the hash device).

Usage:
  verity_ref.py root <data-image>
      print the root and the hash-block count of a data image (4 KiB
      blocks)
  verity_ref.py --check <verity_format-binary>
      format generated data images with the binary and compare its root and
      every hash-device byte with this reference; exit 1 on any difference
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

DIGEST_SIZE = 32


def build(data, block_size=4096, salt=b""):
    """Returns (root digest, hash-device bytes) for `data`."""
    assert len(data) % block_size == 0 and data, "whole blocks, at least one"
    per_block = block_size // DIGEST_SIZE
    level = [hashlib.sha256(salt + data[i:i + block_size]).digest()
             for i in range(0, len(data), block_size)]
    stored = []  # bottom level first
    while len(level) > 1:
        blocks = [b"".join(level[i:i + per_block]).ljust(block_size, b"\0")
                  for i in range(0, len(level), per_block)]
        stored.append(b"".join(blocks))
        level = [hashlib.sha256(salt + b).digest() for b in blocks]
    return level[0], b"".join(reversed(stored))


def indexed_blocks(n, block_size=4096):
    """n distinct blocks: block i is i as a little-endian u64, repeated."""
    return b"".join(i.to_bytes(8, "little") * (block_size // 8)
                    for i in range(n))


def pattern_blocks(n, block_size=4096):
    """test_storage's pattern: byte j of block i is (131 j + i) mod 256."""
    return b"".join(bytes((j * 131 + i) & 0xFF for j in range(block_size))
                    for i in range(n))


# 1 block: no hash blocks; 2: one partly filled block; 128: one full block;
# 129: a partly filled last level-0 block under a second level; 16385:
# three levels (129 + 2 + 1 blocks). 300 is DmVerity.FormatRootIsPinned's
# device in test_storage.
CHECKS = [
    ("1 block", lambda: indexed_blocks(1)),
    ("2 blocks", lambda: indexed_blocks(2)),
    ("128 blocks", lambda: indexed_blocks(128)),
    ("129 blocks", lambda: indexed_blocks(129)),
    ("16385 blocks", lambda: indexed_blocks(16385)),
    ("300 patterned blocks", lambda: pattern_blocks(300)),
]


def check(binary):
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        data_path = os.path.join(tmp, "data.img")
        hash_path = os.path.join(tmp, "hash.img")
        for name, make in CHECKS:
            data = make()
            with open(data_path, "wb") as f:
                f.write(data)
            out = subprocess.run([binary, data_path, hash_path], check=True,
                                 capture_output=True, text=True).stdout
            fields = dict(kv.split("=", 1) for kv in out.split())
            with open(hash_path, "rb") as f:
                got = f.read()
            root, want = build(data)
            problems = []
            if fields["root"] != root.hex():
                problems.append(f"root {fields['root']} != {root.hex()}")
            if got != want:
                first = next((i for i in range(0, min(len(got), len(want)),
                                               4096)
                              if got[i:i + 4096] != want[i:i + 4096]), None)
                problems.append(f"hash device {len(got)} bytes, reference "
                                f"{len(want)}; first differing block {first}")
            if problems:
                failures += 1
                print(f"FAIL {name}: " + "; ".join(problems))
            else:
                print(f"ok   {name}: {len(want) // 4096} hash blocks, "
                      f"root {root.hex()}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="VERITY_FORMAT")
    parser.add_argument("command", nargs="*")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    if len(args.command) != 2 or args.command[0] != "root":
        parser.print_usage()
        return 2
    with open(args.command[1], "rb") as f:
        root, device = build(f.read())
    print(f"root={root.hex()} hash_blocks={len(device) // 4096}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
