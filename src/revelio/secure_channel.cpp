#include "revelio/secure_channel.hpp"

#include "crypto/kdf.hpp"

namespace revelio::core {

namespace {

constexpr std::string_view kTranscriptTag = "revelio-secure-channel-v1";

void append_field(Bytes& out, ByteView v) {
  append_u32be(out, static_cast<std::uint32_t>(v.size()));
  append(out, v);
}

/// The transcript both identity signatures cover: both evidence bundles
/// and both ephemerals, role-tagged, so neither side's contribution can be
/// swapped or reflected.
crypto::Digest48 transcript(ByteView initiator_evidence,
                            ByteView initiator_eph,
                            ByteView responder_evidence,
                            ByteView responder_eph) {
  crypto::Sha384 h;
  h.update(to_bytes(kTranscriptTag));
  Bytes framed;
  append_field(framed, initiator_evidence);
  append_field(framed, initiator_eph);
  append_field(framed, responder_evidence);
  append_field(framed, responder_eph);
  h.update(framed);
  return h.finish();
}

struct SessionKeys {
  Bytes initiator_to_responder;
  Bytes responder_to_initiator;
};

SessionKeys derive_session_keys(ByteView shared_secret,
                                const crypto::Digest48& th) {
  SessionKeys keys;
  keys.initiator_to_responder = crypto::hkdf_sha256(
      shared_secret, th.view(), to_bytes(std::string_view("i2r")),
      crypto::AeadCtrHmac::kKeySize);
  keys.responder_to_initiator = crypto::hkdf_sha256(
      shared_secret, th.view(), to_bytes(std::string_view("r2i")),
      crypto::AeadCtrHmac::kKeySize);
  return keys;
}

FixedBytes<16> seq_nonce(std::uint64_t seq) {
  FixedBytes<16> nonce;
  for (int i = 0; i < 8; ++i) {
    nonce[8 + i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  }
  return nonce;
}

Bytes seq_aad(std::uint64_t seq) {
  Bytes aad;
  append_u64be(aad, seq);
  return aad;
}

/// A peer whose hello carried evidence the relying-party verifier trusts.
struct AttestedPeer {
  crypto::Curve::Point identity_key;
  sevsnp::Measurement measurement;
};

Result<AttestedPeer> attest_peer(const ChannelHello& hello,
                                 const KdsService::VcekResponse& kds,
                                 const RelyingPartyPolicy& policy,
                                 std::uint64_t now_us) {
  auto bundle = EvidenceBundle::parse(hello.evidence);
  if (!bundle.ok()) return bundle.error();
  if (auto st = verify_evidence(*bundle, kds, now_us, policy); !st.ok()) {
    return st.error();
  }
  auto key = crypto::p256().decode_point(bundle->payload);
  if (!key.ok()) {
    return Error::make("channel.bad_identity_key", key.error().to_string());
  }
  return AttestedPeer{*key, bundle->report.measurement};
}

}  // namespace

Bytes ChannelHello::serialize() const {
  Bytes out;
  append(out, std::string_view("RSCH1"));
  append_field(out, evidence);
  append_field(out, ephemeral_pub);
  append_field(out, signature);
  return out;
}

Result<ChannelHello> ChannelHello::parse(ByteView data) {
  if (data.size() < 5 || to_string(data.subspan(0, 5)) != "RSCH1") {
    return Error::make("channel.bad_hello");
  }
  std::size_t off = 5;
  ChannelHello hello;
  auto read_field = [&](Bytes& out) {
    if (off + 4 > data.size()) return false;
    const std::uint32_t len = read_u32be(data, off);
    off += 4;
    if (off + len > data.size()) return false;
    out = to_bytes(data.subspan(off, len));
    off += len;
    return true;
  };
  if (!read_field(hello.evidence) || !read_field(hello.ephemeral_pub) ||
      !read_field(hello.signature)) {
    return Error::make("channel.bad_hello", "truncated");
  }
  return hello;
}

SecureChannel::SecureChannel(Bytes send_key, Bytes recv_key,
                             sevsnp::Measurement peer_measurement)
    : send_aead_(send_key),
      recv_aead_(recv_key),
      peer_measurement_(peer_measurement) {}

ChannelHello SecureChannel::initiate(const ChannelIdentity& self,
                                     crypto::HmacDrbg& entropy,
                                     Bytes& state_out) {
  const crypto::EcKeyPair eph = crypto::ec_generate(crypto::p256(), entropy);
  ChannelHello hello;
  hello.evidence = self.evidence.serialize();
  hello.ephemeral_pub = eph.public_encoded(crypto::p256());
  // The initiator cannot sign the full transcript yet (no responder data);
  // it signs its own contribution, the responder signs the full transcript.
  const auto partial = transcript(hello.evidence, hello.ephemeral_pub, {}, {});
  hello.signature = crypto::ecdsa_sign(crypto::p256(), self.key.d,
                                       partial.view())
                        .encode(crypto::p256());
  // Initiator keeps its ephemeral scalar until complete().
  state_out = eph.d.to_bytes_be(32);
  return hello;
}

Result<std::pair<ChannelHello, SecureChannel>> SecureChannel::respond(
    const ChannelIdentity& self, const RelyingPartyPolicy& policy,
    const ChannelHello& initiator_hello,
    const KdsService::VcekResponse& initiator_kds, crypto::HmacDrbg& entropy,
    std::uint64_t now_us) {
  // 1. Verify the initiator's evidence and signature.
  auto initiator = attest_peer(initiator_hello, initiator_kds, policy, now_us);
  if (!initiator.ok()) return initiator.error();
  auto init_sig = crypto::EcdsaSignature::decode(crypto::p256(),
                                                 initiator_hello.signature);
  if (!init_sig.ok()) return init_sig.error();
  const auto partial = transcript(initiator_hello.evidence,
                                  initiator_hello.ephemeral_pub, {}, {});
  if (!crypto::ecdsa_verify(crypto::p256(), initiator->identity_key,
                            partial.view(), *init_sig)) {
    return Error::make("channel.bad_initiator_signature",
                       "hello not signed by the attested identity key");
  }

  // 2. Responder's ephemeral + ECDH.
  const auto initiator_eph =
      crypto::p256().decode_point(initiator_hello.ephemeral_pub);
  if (!initiator_eph.ok()) {
    return Error::make("channel.bad_ephemeral",
                       initiator_eph.error().to_string());
  }
  const crypto::EcKeyPair eph = crypto::ec_generate(crypto::p256(), entropy);
  auto shared =
      crypto::ecdh_shared_secret(crypto::p256(), eph.d, *initiator_eph);
  if (!shared.ok()) return shared.error();

  // 3. Responder hello with a full-transcript signature.
  ChannelHello hello;
  hello.evidence = self.evidence.serialize();
  hello.ephemeral_pub = eph.public_encoded(crypto::p256());
  const auto th = transcript(initiator_hello.evidence,
                             initiator_hello.ephemeral_pub, hello.evidence,
                             hello.ephemeral_pub);
  hello.signature =
      crypto::ecdsa_sign(crypto::p256(), self.key.d, th.view())
          .encode(crypto::p256());

  const SessionKeys keys = derive_session_keys(*shared, th);
  SecureChannel channel(keys.responder_to_initiator,
                        keys.initiator_to_responder, initiator->measurement);
  return std::make_pair(std::move(hello), std::move(channel));
}

Result<SecureChannel> SecureChannel::complete(
    const ChannelIdentity& self, const RelyingPartyPolicy& policy,
    ByteView initiator_state, const ChannelHello& responder_hello,
    const KdsService::VcekResponse& responder_kds, std::uint64_t now_us) {
  // The state initiate() handed out is the 32-byte ephemeral scalar.
  if (initiator_state.size() != 32) {
    return Error::make("channel.bad_initiator_state",
                       "expected a 32-byte ephemeral scalar");
  }
  // 1. Verify the responder's evidence.
  auto responder = attest_peer(responder_hello, responder_kds, policy, now_us);
  if (!responder.ok()) return responder.error();

  // 2. Recompute the full transcript and verify the responder's signature.
  const crypto::U384 eph_d = crypto::U384::from_bytes_be(initiator_state);
  const Bytes my_eph_pub =
      crypto::p256().encode_point(crypto::p256().scalar_mult_base(eph_d));
  const Bytes my_evidence = self.evidence.serialize();
  const auto th = transcript(my_evidence, my_eph_pub,
                             responder_hello.evidence,
                             responder_hello.ephemeral_pub);
  auto sig = crypto::EcdsaSignature::decode(crypto::p256(),
                                            responder_hello.signature);
  if (!sig.ok()) return sig.error();
  if (!crypto::ecdsa_verify(crypto::p256(), responder->identity_key,
                            th.view(), *sig)) {
    return Error::make("channel.bad_responder_signature",
                       "transcript not signed by the attested identity key");
  }

  // 3. ECDH + session keys.
  const auto responder_eph =
      crypto::p256().decode_point(responder_hello.ephemeral_pub);
  if (!responder_eph.ok()) {
    return Error::make("channel.bad_ephemeral",
                       responder_eph.error().to_string());
  }
  auto shared = crypto::ecdh_shared_secret(crypto::p256(), eph_d,
                                           *responder_eph);
  if (!shared.ok()) return shared.error();
  const SessionKeys keys = derive_session_keys(*shared, th);
  return SecureChannel(keys.initiator_to_responder,
                       keys.responder_to_initiator, responder->measurement);
}

Bytes SecureChannel::send(ByteView plaintext) {
  const std::uint64_t seq = send_seq_++;
  return send_aead_.seal(seq_nonce(seq).view(), seq_aad(seq), plaintext);
}

Result<Bytes> SecureChannel::receive(ByteView sealed) {
  auto plaintext = recv_aead_.open(seq_aad(recv_seq_), sealed);
  if (!plaintext.ok()) {
    return Error::make("channel.auth_failed",
                       "payload rejected (replay, reorder or tamper)");
  }
  ++recv_seq_;
  return plaintext;
}

}  // namespace revelio::core
