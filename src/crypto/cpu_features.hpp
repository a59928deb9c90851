// Runtime CPU feature detection for the crypto hot loops.
//
// The bulk-data targets (dm-verity leaf hashing, dm-crypt AES-XTS) dispatch
// once, at first use, between a portable scalar core and an ISA-accelerated
// one (SHA-NI / AES-NI on x86-64). Both cores produce identical bytes — the
// KAT suites run against whichever core the host selects, and the scalar
// core is always compiled so non-x86 hosts and `REVELIO_NO_ISA=1` runs stay
// covered. cpu_has_sha_ni() picks the one-stream SHA-256 core behind
// Sha256 and sha256(); cpu_has_avx512() picks the 16-lane core behind
// sha256_many, whose other inputs (and every input on a host without
// AVX-512) go through the one-stream core.
#pragma once

namespace revelio::crypto {

/// True when the CPU offers the SHA-NI SHA-256 extensions (and the build
/// targets x86-64). Honours the REVELIO_NO_ISA=1 escape hatch.
bool cpu_has_sha_ni();

/// True when the CPU offers AVX-512F and AVX-512BW and the OS saves the
/// opmask and zmm state (__builtin_cpu_supports checks XCR0 for it), and
/// the build targets x86-64. Honours REVELIO_NO_ISA=1.
bool cpu_has_avx512();

/// True when the CPU offers AES-NI. Honours REVELIO_NO_ISA=1.
bool cpu_has_aes_ni();

}  // namespace revelio::crypto
