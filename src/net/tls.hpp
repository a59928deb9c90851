// TLS-lite: authenticated, encrypted sessions over the simulated network.
//
// A compact model of what Revelio needs from TLS 1.3: an ECDHE handshake,
// server authentication via a certificate chain and a transcript
// signature, and an AEAD record layer with per-direction sequence numbers.
// Crucially, the client can ask the session for the server's certificate
// public key — the hook the web extension uses to check that the TLS
// endpoint terminates inside the attested VM (§3.4.5, §5.3.2).
#pragma once

#include <map>
#include <memory>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/modes.hpp"
#include "net/network.hpp"
#include "pki/cert.hpp"
#include "pki/chain_cache.hpp"

namespace revelio::net {

/// Server-side TLS identity: the leaf key pair and the chain to staple.
struct TlsServerIdentity {
  const crypto::Curve* curve = nullptr;
  crypto::EcKeyPair key;
  pki::Certificate certificate;
  std::vector<pki::Certificate> intermediates;
};

/// Terminates TLS in front of an application handler.
class TlsServer {
 public:
  using PlainHandler =
      std::function<Bytes(ByteView plaintext, const Address& from)>;

  TlsServer(TlsServerIdentity identity, PlainHandler handler,
            crypto::HmacDrbg entropy);

  /// Registers this server at `addr` on the network.
  void install(Network& network, const Address& addr);

  const pki::Certificate& certificate() const {
    return identity_.certificate;
  }

  /// Drops all established sessions (connection reset).
  void reset_sessions();

  Bytes handle_frame(ByteView frame, const Address& from);

 private:
  struct Session {
    crypto::AeadCtrHmac c2s;
    crypto::AeadCtrHmac s2c;
    std::uint64_t recv_seq = 0;
    std::uint64_t send_seq = 0;
  };

  Bytes handle_client_hello(ByteView frame);
  Bytes handle_data(ByteView frame, const Address& from);

  TlsServerIdentity identity_;
  PlainHandler handler_;
  crypto::HmacDrbg entropy_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
};

/// What the client pins.
struct TlsTrustConfig {
  std::vector<pki::Certificate> roots;
  std::string server_name;      // SNI / expected DNS identity
  std::uint64_t now_us = 0;     // for validity checks
  /// Optional chain-verification cache shared across handshakes (the
  /// browser reconnecting to the same server skips the chain walk).
  pki::ChainVerificationCache* chain_cache = nullptr;
};

/// Client side of an established session.
class TlsSession {
 public:
  /// Runs the handshake; verifies the chain and transcript signature.
  /// Emits a "tls.handshake" span (with hello round-trip, chain-verify and
  /// transcript-verify child phases) and tls.handshake.* counters.
  static Result<TlsSession> connect(Network& network, const Address& from,
                                    const Address& to,
                                    const TlsTrustConfig& trust,
                                    crypto::HmacDrbg& entropy);

  /// Sends one encrypted request, returns the decrypted response.
  Result<Bytes> request(ByteView plaintext);

  /// SEC1-encoded public key of the server's leaf certificate — compared by
  /// the web extension against the key hash in REPORT_DATA.
  const Bytes& server_public_key() const {
    return server_cert_.public_key;
  }

  const Address& peer() const { return peer_; }

 private:
  TlsSession(Network& network, Address from, Address peer,
             std::uint64_t session_id, Bytes c2s_key, Bytes s2c_key,
             pki::Certificate server_cert);

  /// Handshake body; connect() wraps it with the span + metrics.
  static Result<TlsSession> connect_impl(Network& network, const Address& from,
                                         const Address& to,
                                         const TlsTrustConfig& trust,
                                         crypto::HmacDrbg& entropy);

  Network* network_;
  Address from_;
  Address peer_;
  std::uint64_t session_id_;
  crypto::AeadCtrHmac c2s_;
  crypto::AeadCtrHmac s2c_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  pki::Certificate server_cert_;
};

}  // namespace revelio::net
