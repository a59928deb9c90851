#include "net/tls.hpp"

#include "crypto/kdf.hpp"
#include "crypto/sha2.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::net {

namespace {

constexpr std::uint8_t kFrameClientHello = 0x01;
constexpr std::uint8_t kFrameServerHello = 0x02;
constexpr std::uint8_t kFrameData = 0x03;
constexpr std::uint8_t kFrameAlert = 0x0f;

// The handshake runs on P-256 ephemerals; server identities may sit on
// either curve (identity signatures carry their own curve name).
const crypto::Curve& handshake_curve() { return crypto::p256(); }

Bytes alert(const std::string& reason) {
  Bytes out;
  append_u8(out, kFrameAlert);
  append(out, reason);
  return out;
}

Result<std::string> parse_alert(ByteView frame) {
  if (frame.empty() || frame[0] != kFrameAlert) {
    return Error::make("tls.not_alert");
  }
  return to_string(frame.subspan(1));
}

FixedBytes<16> record_nonce(std::uint8_t direction, std::uint64_t seq) {
  FixedBytes<16> nonce;
  nonce[0] = direction;
  for (int i = 0; i < 8; ++i) {
    nonce[8 + i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  }
  return nonce;
}

Bytes record_aad(std::uint8_t direction, std::uint64_t session,
                 std::uint64_t seq) {
  Bytes aad;
  append_u8(aad, direction);
  append_u64be(aad, session);
  append_u64be(aad, seq);
  return aad;
}

constexpr std::uint8_t kDirC2s = 0xc5;
constexpr std::uint8_t kDirS2c = 0x5c;

struct KeySchedule {
  Bytes c2s_key;
  Bytes s2c_key;
};

KeySchedule derive_keys(ByteView ecdhe_secret, ByteView client_random,
                        ByteView server_random) {
  const Bytes salt = concat(client_random, server_random);
  KeySchedule ks;
  ks.c2s_key = crypto::hkdf_sha256(ecdhe_secret, salt,
                                   to_bytes(std::string_view("tls-lite c2s")),
                                   crypto::AeadCtrHmac::kKeySize);
  ks.s2c_key = crypto::hkdf_sha256(ecdhe_secret, salt,
                                   to_bytes(std::string_view("tls-lite s2c")),
                                   crypto::AeadCtrHmac::kKeySize);
  return ks;
}

/// Transcript hash binding the server signature to the whole handshake.
crypto::Digest48 transcript_hash(ByteView client_hello,
                                 std::uint64_t session_id,
                                 ByteView server_random,
                                 ByteView server_eph_pub,
                                 const std::vector<Bytes>& cert_chain) {
  crypto::Sha384 h;
  h.update(to_bytes(std::string_view("tls-lite-transcript-v1")));
  h.update(client_hello);
  Bytes sid;
  append_u64be(sid, session_id);
  h.update(sid);
  h.update(server_random);
  h.update(server_eph_pub);
  for (const auto& cert : cert_chain) {
    Bytes len;
    append_u32be(len, static_cast<std::uint32_t>(cert.size()));
    h.update(len);
    h.update(cert);
  }
  return h.finish();
}

}  // namespace

TlsServer::TlsServer(TlsServerIdentity identity, PlainHandler handler,
                     crypto::HmacDrbg entropy)
    : identity_(std::move(identity)),
      handler_(std::move(handler)),
      entropy_(std::move(entropy)) {}

void TlsServer::install(Network& network, const Address& addr) {
  network.listen(addr, [this](ByteView frame, const Address& from) {
    return handle_frame(frame, from);
  });
}

void TlsServer::reset_sessions() { sessions_.clear(); }

Bytes TlsServer::handle_frame(ByteView frame, const Address& from) {
  if (frame.empty()) return alert("empty frame");
  switch (frame[0]) {
    case kFrameClientHello:
      return handle_client_hello(frame);
    case kFrameData:
      return handle_data(frame, from);
    default:
      return alert("unknown frame type");
  }
}

Bytes TlsServer::handle_client_hello(ByteView frame) {
  // Layout: type(1) | client_random(32) | eph_pub_len(4) | eph_pub.
  if (frame.size() < 1 + 32 + 4) return alert("short client hello");
  const ByteView client_random = frame.subspan(1, 32);
  const std::uint32_t pub_len = read_u32be(frame, 33);
  if (37 + pub_len > frame.size()) return alert("short client hello");
  const ByteView client_pub_bytes = frame.subspan(37, pub_len);

  const auto client_pub = handshake_curve().decode_point(client_pub_bytes);
  if (!client_pub.ok()) return alert("bad client ephemeral");

  const crypto::EcKeyPair server_eph =
      crypto::ec_generate(handshake_curve(), entropy_);
  const Bytes server_random = entropy_.generate(32);
  auto secret =
      crypto::ecdh_shared_secret(handshake_curve(), server_eph.d, *client_pub);
  if (!secret.ok()) return alert("ecdh failure");

  const std::uint64_t session_id = next_session_id_++;
  const Bytes server_eph_pub = server_eph.public_encoded(handshake_curve());

  std::vector<Bytes> chain_bytes;
  chain_bytes.push_back(identity_.certificate.serialize());
  for (const auto& inter : identity_.intermediates) {
    chain_bytes.push_back(inter.serialize());
  }

  const auto th = transcript_hash(frame, session_id, server_random,
                                  server_eph_pub, chain_bytes);
  const Bytes signature =
      crypto::ecdsa_sign(*identity_.curve, identity_.key.d, th.view())
          .encode(*identity_.curve);

  const KeySchedule ks =
      derive_keys(*secret, client_random, server_random);
  auto session = std::make_unique<Session>(
      Session{crypto::AeadCtrHmac(ks.c2s_key), crypto::AeadCtrHmac(ks.s2c_key),
              0, 0});
  sessions_[session_id] = std::move(session);

  Bytes out;
  append_u8(out, kFrameServerHello);
  append_u64be(out, session_id);
  append(out, server_random);
  append_u32be(out, static_cast<std::uint32_t>(server_eph_pub.size()));
  append(out, server_eph_pub);
  append_u32be(out, static_cast<std::uint32_t>(chain_bytes.size()));
  for (const auto& cert : chain_bytes) {
    append_u32be(out, static_cast<std::uint32_t>(cert.size()));
    append(out, cert);
  }
  append_u32be(out, static_cast<std::uint32_t>(signature.size()));
  append(out, signature);
  return out;
}

Bytes TlsServer::handle_data(ByteView frame, const Address& from) {
  // Layout: type(1) | session_id(8) | sealed record.
  if (frame.size() < 9) return alert("short data frame");
  const std::uint64_t session_id = read_u64be(frame, 1);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return alert("unknown session");
  Session& session = *it->second;

  auto plaintext = session.c2s.open(
      record_aad(kDirC2s, session_id, session.recv_seq), frame.subspan(9));
  if (!plaintext.ok()) return alert("record authentication failed");
  ++session.recv_seq;

  const Bytes response = handler_(*plaintext, from);

  const std::uint64_t seq = session.send_seq++;
  Bytes out;
  append_u8(out, kFrameData);
  append_u64be(out, session_id);
  const Bytes sealed = session.s2c.seal(record_nonce(kDirS2c, seq).view(),
                                        record_aad(kDirS2c, session_id, seq),
                                        response);
  append(out, sealed);
  return out;
}

TlsSession::TlsSession(Network& network, Address from, Address peer,
                       std::uint64_t session_id, Bytes c2s_key, Bytes s2c_key,
                       pki::Certificate server_cert)
    : network_(&network),
      from_(std::move(from)),
      peer_(std::move(peer)),
      session_id_(session_id),
      c2s_(c2s_key),
      s2c_(s2c_key),
      server_cert_(std::move(server_cert)) {}

Result<TlsSession> TlsSession::connect(Network& network, const Address& from,
                                       const Address& to,
                                       const TlsTrustConfig& trust,
                                       crypto::HmacDrbg& entropy) {
  obs::Span span("tls.handshake");
  span.attr("server",
            trust.server_name.empty() ? to.to_string() : trust.server_name);
  auto session = connect_impl(network, from, to, trust, entropy);
  static obs::Counter& handshakes =
      obs::metrics().counter("tls.handshake.count");
  handshakes.inc();
  if (!session.ok()) {
    obs::metrics()
        .counter("tls.handshake.fail.count",
                 {{"reason", session.error().code}})
        .inc();
    span.attr("result", session.error().code);
  } else {
    span.attr("result", "ok");
  }
  return session;
}

Result<TlsSession> TlsSession::connect_impl(Network& network,
                                            const Address& from,
                                            const Address& to,
                                            const TlsTrustConfig& trust,
                                            crypto::HmacDrbg& entropy) {
  const crypto::EcKeyPair client_eph =
      crypto::ec_generate(handshake_curve(), entropy);
  const Bytes client_random = entropy.generate(32);
  const Bytes client_pub = client_eph.public_encoded(handshake_curve());

  Bytes hello;
  append_u8(hello, kFrameClientHello);
  append(hello, client_random);
  append_u32be(hello, static_cast<std::uint32_t>(client_pub.size()));
  append(hello, client_pub);

  obs::Span hello_span("tls.hello_roundtrip");
  auto response = network.call(from, to, hello);
  hello_span.end();
  if (!response.ok()) return response.error();
  const ByteView frame = *response;
  if (auto alert_reason = parse_alert(frame); alert_reason.ok()) {
    return Error::make("tls.alert", *alert_reason);
  }
  if (frame.size() < 1 + 8 + 32 + 4 || frame[0] != kFrameServerHello) {
    return Error::make("tls.bad_server_hello");
  }
  std::size_t off = 1;
  const std::uint64_t session_id = read_u64be(frame, off);
  off += 8;
  const ByteView server_random = frame.subspan(off, 32);
  off += 32;
  const std::uint32_t eph_len = read_u32be(frame, off);
  off += 4;
  if (off + eph_len + 4 > frame.size()) {
    return Error::make("tls.bad_server_hello", "ephemeral");
  }
  const ByteView server_eph_pub = frame.subspan(off, eph_len);
  off += eph_len;
  const std::uint32_t cert_count = read_u32be(frame, off);
  off += 4;
  if (cert_count == 0 || cert_count > 8) {
    return Error::make("tls.bad_server_hello", "certificate count");
  }
  std::vector<Bytes> chain_bytes;
  std::vector<pki::Certificate> chain;
  for (std::uint32_t i = 0; i < cert_count; ++i) {
    if (off + 4 > frame.size()) {
      return Error::make("tls.bad_server_hello", "truncated chain");
    }
    const std::uint32_t cert_len = read_u32be(frame, off);
    off += 4;
    if (off + cert_len > frame.size()) {
      return Error::make("tls.bad_server_hello", "truncated certificate");
    }
    chain_bytes.push_back(to_bytes(frame.subspan(off, cert_len)));
    auto cert = pki::Certificate::parse(chain_bytes.back());
    if (!cert.ok()) return cert.error();
    chain.push_back(std::move(*cert));
    off += cert_len;
  }
  if (off + 4 > frame.size()) {
    return Error::make("tls.bad_server_hello", "signature length");
  }
  const std::uint32_t sig_len = read_u32be(frame, off);
  off += 4;
  if (off + sig_len > frame.size()) {
    return Error::make("tls.bad_server_hello", "signature");
  }
  const ByteView signature = frame.subspan(off, sig_len);

  // 1. Verify the chain against pinned roots and the expected name.
  const pki::Certificate& leaf = chain.front();
  pki::ChainVerifyOptions chain_options;
  chain_options.now_us = trust.now_us;
  if (!trust.server_name.empty()) chain_options.dns_name = trust.server_name;
  const std::vector<pki::Certificate> intermediates(chain.begin() + 1,
                                                    chain.end());
  Status chain_status = Status::success();
  if (trust.chain_cache != nullptr) {
    // The cache emits its own pki.chain_verify span + result counters.
    chain_status = trust.chain_cache->verify(leaf, intermediates, trust.roots,
                                             chain_options);
  } else {
    obs::Span chain_span("pki.chain_verify");
    chain_span.attr("cache", "none");
    chain_span.attr("chain_len", static_cast<std::uint64_t>(chain.size()));
    chain_status =
        pki::verify_chain(leaf, intermediates, trust.roots, chain_options);
    const std::string result =
        chain_status.ok() ? "ok" : chain_status.error().code;
    chain_span.attr("result", result);
    obs::metrics()
        .counter("pki.chain_verify.result.count", {{"result", result}})
        .inc();
  }
  if (!chain_status.ok()) {
    return Error::make("tls.untrusted_certificate",
                       chain_status.error().to_string());
  }

  // 2. Verify the transcript signature under the leaf key (proves the
  // server holds the certified private key and binds the ephemerals).
  auto leaf_curve = pki::curve_by_name(leaf.curve_name);
  if (!leaf_curve.ok()) return leaf_curve.error();
  const auto leaf_pub = (*leaf_curve)->decode_point(leaf.public_key);
  if (!leaf_pub.ok()) {
    return Error::make("tls.bad_leaf_key", leaf_pub.error().to_string());
  }
  auto sig = crypto::EcdsaSignature::decode(**leaf_curve, signature);
  if (!sig.ok()) return sig.error();
  obs::Span transcript_span("tls.transcript_verify");
  transcript_span.attr("curve", leaf.curve_name);
  const auto th = transcript_hash(hello, session_id, server_random,
                                  server_eph_pub, chain_bytes);
  if (!crypto::ecdsa_verify(**leaf_curve, *leaf_pub, th.view(), *sig)) {
    transcript_span.attr("result", "bad_signature");
    return Error::make("tls.bad_transcript_signature",
                       "server did not prove key possession");
  }
  transcript_span.attr("result", "ok");
  transcript_span.end();

  // 3. Key schedule.
  const auto server_pub = handshake_curve().decode_point(server_eph_pub);
  if (!server_pub.ok()) {
    return Error::make("tls.bad_server_ephemeral",
                       server_pub.error().to_string());
  }
  auto secret =
      crypto::ecdh_shared_secret(handshake_curve(), client_eph.d, *server_pub);
  if (!secret.ok()) return secret.error();
  const KeySchedule ks = derive_keys(*secret, client_random, server_random);

  return TlsSession(network, from, to, session_id, ks.c2s_key, ks.s2c_key,
                    leaf);
}

Result<Bytes> TlsSession::request(ByteView plaintext) {
  // The sequence number is taken when the record is sealed, whatever
  // becomes of the call: a dropped or refused record must never leave its
  // nonce for the next plaintext. The server then expects the lost number,
  // so the session fails closed on its next record and the caller
  // handshakes again, as after a lost TLS record.
  const std::uint64_t seq = send_seq_++;
  Bytes frame;
  append_u8(frame, kFrameData);
  append_u64be(frame, session_id_);
  const Bytes sealed =
      c2s_.seal(record_nonce(kDirC2s, seq).view(),
                record_aad(kDirC2s, session_id_, seq), plaintext);
  append(frame, sealed);

  auto response = network_->call(from_, peer_, frame);
  if (!response.ok()) return response.error();
  if (auto alert_reason = parse_alert(*response); alert_reason.ok()) {
    return Error::make("tls.alert", *alert_reason);
  }
  const ByteView rframe = *response;
  if (rframe.size() < 9 || rframe[0] != kFrameData ||
      read_u64be(rframe, 1) != session_id_) {
    return Error::make("tls.bad_record");
  }
  auto plain = s2c_.open(record_aad(kDirS2c, session_id_, recv_seq_),
                         rframe.subspan(9));
  if (!plain.ok()) {
    return Error::make("tls.record_auth_failed",
                       "response record failed authentication");
  }
  ++recv_seq_;
  return plain;
}

}  // namespace revelio::net
