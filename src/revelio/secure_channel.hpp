// Mutually-attested secure channel between two Revelio VMs.
//
// §5.2.2: the per-VM identity key pair "will either be the TLS identity …
// or it can be used for secure data exchange between VMs after a mutual
// attestation has taken place". This implements that second use: both
// sides exchange identity evidence bundles, verify each other's report
// with the relying-party verifier (REPORT_DATA binding, revocation, TCB
// horizon, chain, signature, measurement), then run a signed ECDH over the
// attested identity keys to derive AEAD session keys.
// The resulting channel carries arbitrary application payloads between
// enclaves — replication traffic, state hand-off, etc.
#pragma once

#include "crypto/modes.hpp"
#include "revelio/relying_party.hpp"

namespace revelio::core {

/// One endpoint's long-lived channel identity: the VM identity key plus
/// its evidence bundle (as produced by RevelioVm at first boot).
struct ChannelIdentity {
  crypto::EcKeyPair key;        // P-256 identity key
  EvidenceBundle evidence;      // report binding sha256(public key)
};

/// Handshake message: evidence + ephemeral key + signature over transcript.
struct ChannelHello {
  Bytes evidence;       // serialized EvidenceBundle
  Bytes ephemeral_pub;  // SEC1 P-256
  Bytes signature;      // by the identity key over the transcript

  Bytes serialize() const;
  static Result<ChannelHello> parse(ByteView data);
};

/// An established, mutually-attested session.
class SecureChannel {
 public:
  /// Initiator side: builds the opening hello.
  static ChannelHello initiate(const ChannelIdentity& self,
                               crypto::HmacDrbg& entropy, Bytes& state_out);

  /// Responder side: verifies the initiator, answers, and establishes.
  static Result<std::pair<ChannelHello, SecureChannel>> respond(
      const ChannelIdentity& self, const RelyingPartyPolicy& policy,
      const ChannelHello& initiator_hello,
      const KdsService::VcekResponse& initiator_kds,
      crypto::HmacDrbg& entropy, std::uint64_t now_us);

  /// Initiator side: verifies the responder and establishes.
  /// `initiator_state` must be the 32 bytes initiate() wrote; any other
  /// length fails closed with channel.bad_initiator_state.
  static Result<SecureChannel> complete(
      const ChannelIdentity& self, const RelyingPartyPolicy& policy,
      ByteView initiator_state, const ChannelHello& responder_hello,
      const KdsService::VcekResponse& responder_kds, std::uint64_t now_us);

  /// Seals a payload to the peer (sequence-numbered, replay-safe).
  Bytes send(ByteView plaintext);

  /// Opens a payload from the peer.
  Result<Bytes> receive(ByteView sealed);

  /// The peer's verified launch measurement (for application policy).
  const sevsnp::Measurement& peer_measurement() const {
    return peer_measurement_;
  }

 private:
  SecureChannel(Bytes send_key, Bytes recv_key,
                sevsnp::Measurement peer_measurement);

  crypto::AeadCtrHmac send_aead_;
  crypto::AeadCtrHmac recv_aead_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  sevsnp::Measurement peer_measurement_;
};

}  // namespace revelio::core
