// Browser + Revelio web extension (§5.3.2).
//
// The Browser models what Firefox gives the extension: HTTPS fetches over
// cached TLS sessions, plus the API to query the public key of the current
// connection. The WebExtension intercepts every request to a registered
// domain: on a fresh session it fetches the attestation evidence from the
// well-known URL, pulls the VCEK chain from the (simulated) AMD KDS —
// caching it, since the VCEK only rotates with firmware updates —
// validates chain, signature, measurement (against a manual registration
// or a delegated TrustedRegistry) and the TLS binding; on every subsequent
// request it re-checks that the connection still terminates at the
// attested key, which is what defeats the certificate-swap redirect attack.
#pragma once

#include <map>
#include <optional>

#include "net/http.hpp"
#include "net/resilience.hpp"
#include "net/tls.hpp"
#include "obs/flight_recorder.hpp"
#include "revelio/relying_party.hpp"
#include "revelio/session_engine.hpp"
#include "revelio/vcek_cache.hpp"

namespace revelio::core {

class Browser {
 public:
  Browser(net::Network& network, std::string client_host,
          std::vector<pki::Certificate> trust_roots, crypto::HmacDrbg entropy);

  struct FetchResult {
    net::HttpResponse response;
    Bytes tls_server_key;  // the "connection context" API
    bool new_session = false;
  };

  /// HTTPS GET/POST through the per-domain session cache; reconnects (and
  /// reports new_session) if the server reset the session.
  Result<FetchResult> fetch(const std::string& domain, std::uint16_t port,
                            const net::HttpRequest& request);
  Result<FetchResult> get(const std::string& domain, std::uint16_t port,
                          const std::string& path);

  /// Establishes (or reuses) the TLS session to `domain` without issuing a
  /// request and returns the server's public key. The staged gateway path
  /// uses this as its handshake stage so the TLS round trips land in their
  /// own wake interval instead of being folded into the first page fetch.
  Result<Bytes> connect(const std::string& domain, std::uint16_t port);

  void drop_session(const std::string& domain);
  const std::string& host() const { return client_host_; }
  net::Network& network() { return *network_; }

  /// Replaces the private handshake chain cache with a shared one (e.g.
  /// the gateway engine's — thread-safe, so many browsers on many lanes
  /// can share it). Pass nullptr to revert to the private cache. The cache
  /// must outlive the browser.
  void set_chain_cache(pki::ChainVerificationCache* cache) {
    shared_chain_cache_ = cache;
  }

 private:
  Result<net::TlsSession*> session_for(const std::string& domain,
                                       std::uint16_t port, bool& created);

  net::Network* network_;
  std::string client_host_;
  std::vector<pki::Certificate> trust_roots_;
  crypto::HmacDrbg entropy_;
  std::map<std::string, net::TlsSession> sessions_;
  /// Reconnects to a known server revalidate its chain from this cache,
  /// created on the first handshake that has no shared one (behind
  /// unique_ptr: the cache holds a mutex, Browser stays movable).
  std::unique_ptr<pki::ChainVerificationCache> own_chain_cache_;
  /// When set (set_chain_cache), used instead of own_chain_cache_.
  pki::ChainVerificationCache* shared_chain_cache_ = nullptr;
  std::uint16_t next_port_ = 40000;
};

/// How a registered site's measurement is judged: manual pins, a delegated
/// TrustedRegistry, or both, plus an optional TCB floor.
using SiteRegistration = MeasurementPolicy;

/// FleetState: the revocation set, TCB horizons and audit log it consults.
struct WebExtensionConfig : FleetState {
  net::Address kds_address;
  /// Read-only KDS mirrors tried, in order, when kds_address (or an earlier
  /// mirror) is transiently unreachable or its breaker is open. The VCEK
  /// chain is self-authenticating (it must chain to the pinned AMD root),
  /// so fetching it from any mirror is safe.
  std::vector<net::Address> kds_mirrors;
  /// Simulated cost of querying the browser's connection context on every
  /// monitored request (the paper's 115.0 ms vs 100.9 ms plain delta).
  double connection_check_overhead_ms = 14.0;
  /// Transient-transport retry policy for page fetches, evidence fetches
  /// and KDS calls. max_attempts = 1 keeps the resilience layer in the
  /// path (counters, spans, failover) without changing timing — chaos
  /// configs raise it.
  net::RetryPolicy retry{.max_attempts = 1};
  /// Virtual-time budget for one full attestation pass (0 = unlimited),
  /// threaded as a Deadline through evidence + KDS sub-calls.
  double attest_deadline_ms = 0.0;
  /// Gateway mode: a shared, thread-safe chain cache (typically the
  /// engine's) used for report-chain verification in place of the
  /// extension's private one. Must outlive the extension.
  pki::ChainVerificationCache* shared_chain_cache = nullptr;
  /// Gateway mode: a shared VCEK cache (one KDS fetch per chip and TCB),
  /// in place of the extension's private one. Must outlive the extension.
  VcekCache* shared_vcek_cache = nullptr;
  /// Session id stamped on this extension's audit records (the gateway
  /// sets it to the session index; a lone extension can leave 0).
  std::uint64_t audit_session_id = 0;
};

class WebExtension {
 public:
  WebExtension(Browser& browser, WebExtensionConfig config);

  void register_site(const std::string& domain, SiteRegistration site);

  /// Opportunistic discovery (§5.3.2): probes the well-known URL; returns
  /// true if the site serves Revelio evidence (user would be prompted to
  /// pin a measurement).
  Result<bool> discover(const std::string& domain, std::uint16_t port);

  struct Verified {
    net::HttpResponse response;
    AttestationChecks checks;
  };

  /// Intercepted fetch: attests on first access / session change, monitors
  /// the connection afterwards. Fails closed on any check failure. The page
  /// is fetched first; a fresh session then runs the fetch_evidence ->
  /// fetch_kds -> verify stages of a StagedAttestation.
  Result<Verified> fetch(const std::string& domain, std::uint16_t port,
                         const net::HttpRequest& request);
  Result<Verified> get(const std::string& domain, std::uint16_t port,
                       const std::string& path);

  /// The attestation pipeline, cut at its I/O boundaries so an
  /// event-driven engine can run one stage per wake and park the session
  /// between them. fetch() runs the same stages back to back. The pass
  /// tracks its position as a SessionState; the order is fixed:
  ///
  ///   handshake() -> fetch_evidence() -> fetch_kds() -> verify()
  ///     -> fetch_page(path)
  ///
  /// Each stage returns Status: transport errors propagate with their
  /// original code; failed *checks* return "extension.attestation_failed"
  /// (fail closed, same as fetch()), with the step recorded in
  /// checks().failure_step and last_checks(). A failed stage leaves the
  /// pass at kFailed; a stage called out of order returns
  /// "extension.stage_order" and changes nothing. Unlike fetch(), the page
  /// fetch happens *after* verification, so it takes the monitoring path
  /// and pays connection_check_overhead_ms, and only with all checks green.
  ///
  /// Thread safety: none — one StagedAttestation belongs to one session,
  /// and the parent extension/browser must be externally serialized per
  /// world, exactly like fetch().
  ///
  /// Lifetime: a pass keeps the session record (obs/flight_recorder.hpp)
  /// bound when it began, so a batched verify stage, which runs outside
  /// the session's own dispatch, still lands in the session's flight ring.
  /// A pass begun inside SessionEngine::run_staged must therefore finish
  /// inside that run.
  class StagedAttestation {
   public:
    /// TLS connect (or session reuse); captures the server key.
    Status handshake();
    /// Evidence fetch from the well-known URL + parse + REPORT_DATA
    /// binding check.
    Status fetch_evidence();
    /// VCEK chain from the KDS through the VCEK cache, with retry x
    /// failover.
    Status fetch_kds();
    /// Pure compute: chain walk, report signature, measurement policy, TLS
    /// binding. Records the attested DomainState on success.
    /// batch_verify_sessions is its batched alternative.
    Status verify();
    /// Monitored page fetch over the now-attested session.
    Result<net::HttpResponse> fetch_page(const std::string& path);

    /// Runs the stage the pass is at; returns the next state, or kFailed
    /// with the stage's Status in `failure` ("extension.stage_order" once
    /// the pass is finished). The page stage keeps its page in page().
    SessionState step(const std::string& path, Status& failure);
    SessionState state() const { return state_; }
    const net::HttpResponse& page() const { return page_; }
    const AttestationChecks& checks() const { return verifier_.checks(); }
    const std::string& domain() const { return domain_; }

   private:
    friend class WebExtension;
    friend std::vector<Status> batch_verify_sessions(
        const std::vector<StagedAttestation*>& sessions);
    StagedAttestation(WebExtension& ext, std::string domain,
                      std::uint16_t port)
        : ext_(&ext),
          domain_(std::move(domain)),
          port_(port),
          verifier_(ext.site_policy(domain_)) {}

    /// The bound session record if it carries a ring, else null: only
    /// the engine's per-session records outlive their dispatch.
    static obs::SessionRecord* held_record() {
      obs::SessionRecord* r = obs::session_record();
      return r != nullptr && r->ring != nullptr ? r : nullptr;
    }

    Status wrong_stage(const char* want) const;
    Status failed(Status st) { state_ = SessionState::kFailed; return st; }
    std::uint64_t now_us() const {
      return ext_->browser_->network().clock().now_us();
    }
    /// The terminal verdict, accept or reject: the verifier's flight event
    /// and audit record, the DomainState last_checks() reads, the
    /// ext.attest.result.count label, and the stage's status.
    Status conclude(bool accepted);
    const EvidenceBundle& bundle() const { return *verifier_.bundle(); }

    WebExtension* ext_;
    std::string domain_;
    std::uint16_t port_ = 0;
    obs::SessionRecord* record_ = held_record();
    SessionState state_ = SessionState::kHandshake;
    net::Deadline deadline_;
    /// The site's policy, with the session's TLS key as the expected
    /// payload once the handshake has it; holds the evidence and chain
    /// the stages gather.
    RelyingPartyVerifier verifier_;
    net::HttpResponse page_;
  };

  /// Starts a staged attestation pass against a registered site. The
  /// returned object borrows this extension and its browser; drive it one
  /// stage at a time (see StagedAttestation).
  StagedAttestation begin_session(const std::string& domain,
                                  std::uint16_t port) {
    return StagedAttestation(*this, domain, port);
  }

  const AttestationChecks* last_checks(const std::string& domain) const;

  /// Drops the attested state (e.g. the user clicked "re-verify").
  void invalidate(const std::string& domain);

  // --- stats (benchmarks read these) -----------------------------------
  std::uint64_t kds_fetches() const { return kds_fetches_; }
  std::uint64_t vcek_cache_hits() const { return vcek_cache_hits_; }
  std::uint64_t attestations_performed() const { return attestations_; }

 private:
  struct DomainState {
    bool attested = false;
    Bytes attested_key;
    AttestationChecks checks;
  };

  Result<KdsService::VcekResponse> fetch_vcek(const sevsnp::ChipId& chip,
                                              sevsnp::TcbVersion tcb,
                                              const net::Deadline& deadline);
  /// The relying-party policy for `domain`: its registration plus this
  /// extension's revocation set, TCB horizon, audit log and chain cache.
  RelyingPartyPolicy site_policy(const std::string& domain) const;

  Browser* browser_;
  WebExtensionConfig config_;
  /// KDS replica list (kds_address first, then mirrors), one breaker each.
  net::Failover kds_failover_;
  /// Seeded jitter source for retry backoff; deterministic per extension.
  crypto::HmacDrbg retry_jitter_;
  std::map<std::string, SiteRegistration> sites_;
  std::map<std::string, DomainState> state_;
  /// Private caches, created only when the config shares none (behind
  /// unique_ptr: both hold mutexes, WebExtension stays movable).
  std::unique_ptr<pki::ChainVerificationCache> own_chain_cache_;
  std::unique_ptr<VcekCache> own_vcek_cache_;
  /// What verification uses: the shared cache if configured, else ours.
  /// The ARK -> ASK -> VCEK chain walk is memoized across attestations.
  pki::ChainVerificationCache* chain_cache_ = nullptr;
  VcekCache* vcek_cache_ = nullptr;
  std::uint64_t kds_fetches_ = 0;
  std::uint64_t vcek_cache_hits_ = 0;
  std::uint64_t attestations_ = 0;
};

/// Runs the verify stage for many staged sessions — typically the whole
/// wavefront a SessionEngine batch dispatch hands over — in one pass: each
/// session's verifier is split at the signature (RelyingPartyVerifier::
/// prepare), ONE crypto::ecdsa_verify_batch checks every prepared
/// signature (the per-signature offender fallback lives inside it), audit
/// evidence/chain digests are hashed eight sessions at a time, then each
/// verifier finishes. Each session's prepare and finish run with
/// its own session record bound, so their flight events (chain-cache
/// probe, verdict) land in that session's ring. The returned statuses are
/// slot-parallel with `sessions` and identical to what each session's own
/// verify() would have produced. A null entry fails closed with
/// "extension.no_session": it was never verified.
std::vector<Status> batch_verify_sessions(
    const std::vector<WebExtension::StagedAttestation*>& sessions);

}  // namespace revelio::core
