// Subnets: replicated, Byzantine-fault-tolerant canister execution.
//
// A subnet of n = 3f+1 replicas executes every update deterministically on
// each replica and certifies the (response, state root) that at least
// 2f+1 replicas agree on. A certificate — the threshold-signed artefact
// end-users (or the verifying service worker) check — consists of 2f+1
// replica signatures over the same digest; with at most f Byzantine
// replicas no certificate over a wrong result can form (§4.2).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "ic/canister.hpp"

namespace revelio::ic {

using ReplicaId = std::uint32_t;

/// Failure behaviours a test can inject into a replica.
enum class ByzantineMode {
  kHonest,
  kSilent,            // refuses to sign
  kCorruptExecution,  // computes wrong results (and signs them)
  kSignGarbage,       // signs random digests
};

struct Certificate {
  std::uint64_t round = 0;
  crypto::Digest32 state_root;
  crypto::Digest32 response_hash;
  CanisterId canister;
  std::string method;
  std::vector<std::pair<ReplicaId, Bytes>> signatures;

  /// Digest every replica signs.
  crypto::Digest32 signed_digest() const;

  Bytes serialize() const;
  static Result<Certificate> parse(ByteView data);
};

struct CertifiedResponse {
  Bytes reply;
  Certificate certificate;
};

/// One replica: full copy of every canister plus a signing identity.
class Replica {
 public:
  Replica(ReplicaId id, crypto::EcKeyPair key)
      : id_(id), key_(std::move(key)) {}

  ReplicaId id() const { return id_; }
  Bytes public_key() const {
    return key_.public_encoded(crypto::p256());
  }
  void set_byzantine(ByzantineMode mode) { mode_ = mode; }

  void install_canister(const CanisterId& id,
                        std::unique_ptr<Canister> canister);
  Result<Bytes> execute_update(const CanisterId& id, const std::string& method,
                               ByteView arg);
  Result<Bytes> execute_query(const CanisterId& id, const std::string& method,
                              ByteView arg) const;
  crypto::Digest32 state_root() const;

  /// Signature share over a certificate digest (or garbage, if Byzantine).
  std::optional<Bytes> sign(const crypto::Digest32& digest,
                            crypto::HmacDrbg& garbage_source);

 private:
  ReplicaId id_;
  crypto::EcKeyPair key_;
  ByzantineMode mode_ = ByzantineMode::kHonest;
  std::map<CanisterId, std::unique_ptr<Canister>> canisters_;
};

class Subnet {
 public:
  /// n = 3f+1 replicas tolerating f Byzantine; threshold 2f+1.
  Subnet(std::uint32_t f, crypto::HmacDrbg& drbg);

  std::uint32_t replica_count() const {
    return static_cast<std::uint32_t>(replicas_.size());
  }
  std::uint32_t threshold() const { return 2 * f_ + 1; }

  /// Installs a canister by cloning the prototype to every replica.
  void install_canister(const CanisterId& id, const Canister& prototype);

  /// Replicated update: executes everywhere, certifies the agreed result.
  Result<CertifiedResponse> update(const CanisterId& id,
                                   const std::string& method, ByteView arg);

  /// Certified query: read-only, but still certified so a client behind an
  /// untrusted proxy can verify the answer.
  Result<CertifiedResponse> query(const CanisterId& id,
                                  const std::string& method, ByteView arg);

  void set_byzantine(ReplicaId id, ByzantineMode mode);

  /// The "subnet registry": replica public keys a verifier pins.
  std::map<ReplicaId, Bytes> public_keys() const;

 private:
  Result<CertifiedResponse> certify(const CanisterId& id,
                                    const std::string& method,
                                    bool is_update, ByteView arg);

  std::uint32_t f_;
  std::uint64_t round_ = 0;
  std::vector<std::unique_ptr<Replica>> replicas_;
  crypto::HmacDrbg garbage_drbg_;
};

/// Client-side certificate verification against pinned replica keys.
Status verify_certificate(const Certificate& cert, ByteView reply,
                          const std::map<ReplicaId, Bytes>& public_keys,
                          std::uint32_t threshold);

}  // namespace revelio::ic
