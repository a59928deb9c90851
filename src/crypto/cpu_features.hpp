// Runtime CPU feature detection for the crypto hot loops.
//
// The bulk-data targets (dm-verity leaf hashing, dm-crypt AES-XTS) dispatch
// once, at first use, between a portable scalar core and an ISA-accelerated
// one (SHA-NI / AES-NI on x86-64). Both cores produce identical bytes — the
// KAT suites run against whichever core the host selects, and the scalar
// core is always compiled so non-x86 hosts and `REVELIO_NO_ISA=1` runs stay
// covered. cpu_has_sha_ni() alone picks both SHA-256 entry points: the
// one-stream core and the two-stream core behind Sha256::finish_2x (on the
// scalar side, the one-stream core run once per stream).
#pragma once

namespace revelio::crypto {

/// True when the CPU offers the SHA-NI SHA-256 extensions (and the build
/// targets x86-64). Honours the REVELIO_NO_ISA=1 escape hatch.
bool cpu_has_sha_ni();

/// True when the CPU offers AES-NI. Honours REVELIO_NO_ISA=1.
bool cpu_has_aes_ni();

}  // namespace revelio::crypto
