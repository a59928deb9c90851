#include "revelio/web_extension.hpp"

#include <algorithm>

#include "crypto/ecdsa.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::core {

Browser::Browser(net::Network& network, std::string client_host,
                 std::vector<pki::Certificate> trust_roots,
                 crypto::HmacDrbg entropy)
    : network_(&network),
      client_host_(std::move(client_host)),
      trust_roots_(std::move(trust_roots)),
      entropy_(std::move(entropy)) {}

Result<net::TlsSession*> Browser::session_for(const std::string& domain,
                                              std::uint16_t port,
                                              bool& created) {
  created = false;
  const auto it = sessions_.find(domain);
  if (it != sessions_.end()) return &it->second;

  auto address = network_->resolve(domain, port);
  if (!address.ok()) return address.error();

  net::TlsTrustConfig trust;
  trust.roots = trust_roots_;
  trust.server_name = domain;
  trust.now_us = network_->clock().now_us();
  trust.chain_cache = shared_chain_cache_;
  if (trust.chain_cache == nullptr) {
    if (!own_chain_cache_) {
      own_chain_cache_ = std::make_unique<pki::ChainVerificationCache>();
    }
    trust.chain_cache = own_chain_cache_.get();
  }
  auto session = net::TlsSession::connect(
      *network_, {client_host_, next_port_++}, *address, trust, entropy_);
  if (!session.ok()) return session.error();
  created = true;
  const auto [inserted, is_new] = sessions_.emplace(domain, std::move(*session));
  (void)is_new;
  return &inserted->second;
}

Result<Browser::FetchResult> Browser::fetch(const std::string& domain,
                                            std::uint16_t port,
                                            const net::HttpRequest& request) {
  bool created = false;
  auto session = session_for(domain, port, created);
  if (!session.ok()) return session.error();

  auto raw = (*session)->request(request.serialize());
  if (!raw.ok()) {
    // Session reset or record failure: reconnect once, as browsers do.
    sessions_.erase(domain);
    auto fresh = session_for(domain, port, created);
    if (!fresh.ok()) return fresh.error();
    session = fresh;
    raw = (*session)->request(request.serialize());
    if (!raw.ok()) return raw.error();
  }
  auto response = net::HttpResponse::parse(*raw);
  if (!response.ok()) return response.error();
  return FetchResult{std::move(*response), (*session)->server_public_key(),
                     created};
}

Result<Browser::FetchResult> Browser::get(const std::string& domain,
                                          std::uint16_t port,
                                          const std::string& path) {
  net::HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.host = domain;
  return fetch(domain, port, request);
}

Result<Bytes> Browser::connect(const std::string& domain,
                               std::uint16_t port) {
  bool created = false;
  auto session = session_for(domain, port, created);
  if (!session.ok()) return session.error();
  return (*session)->server_public_key();
}

void Browser::drop_session(const std::string& domain) {
  sessions_.erase(domain);
}

namespace {
std::vector<net::Address> kds_replicas(const WebExtensionConfig& config) {
  std::vector<net::Address> replicas{config.kds_address};
  replicas.insert(replicas.end(), config.kds_mirrors.begin(),
                  config.kds_mirrors.end());
  return replicas;
}

}  // namespace

WebExtension::WebExtension(Browser& browser, WebExtensionConfig config)
    : browser_(&browser),
      config_(std::move(config)),
      kds_failover_(kds_replicas(config_), {}, "kds"),
      retry_jitter_(to_bytes("ext-retry-jitter"), to_bytes(browser.host())),
      chain_cache_(config_.shared_chain_cache),
      vcek_cache_(config_.shared_vcek_cache) {
  if (chain_cache_ == nullptr) {
    own_chain_cache_ = std::make_unique<pki::ChainVerificationCache>();
    chain_cache_ = own_chain_cache_.get();
  }
  if (vcek_cache_ == nullptr) {
    own_vcek_cache_ = std::make_unique<VcekCache>();
    vcek_cache_ = own_vcek_cache_.get();
  }
}

void WebExtension::register_site(const std::string& domain,
                                 SiteRegistration site) {
  sites_[domain] = std::move(site);
  state_.erase(domain);
}

void WebExtension::invalidate(const std::string& domain) {
  state_.erase(domain);
}

const AttestationChecks* WebExtension::last_checks(
    const std::string& domain) const {
  const auto it = state_.find(domain);
  return it == state_.end() ? nullptr : &it->second.checks;
}

Result<bool> WebExtension::discover(const std::string& domain,
                                    std::uint16_t port) {
  auto result = browser_->get(domain, port, "/.well-known/revelio-attestation");
  if (!result.ok()) return result.error();
  if (result->response.status != 200) return false;
  return EvidenceBundle::parse(result->response.body).ok();
}

Result<KdsService::VcekResponse> WebExtension::fetch_vcek(
    const sevsnp::ChipId& chip, sevsnp::TcbVersion tcb,
    const net::Deadline& deadline) {
  // On a miss, this extension's own resilience stack (retry x failover,
  // breakers) is the cache's fetch — with a shared cache, concurrent
  // sessions missing on the same (chip, tcb) wait for it instead of
  // stampeding the KDS.
  bool fetched = false;  // did THIS call run the fetch?
  auto result = vcek_cache_->get_or_fetch(chip, tcb, [&] {
    fetched = true;
    obs::Span span("ext.kds_fetch");
    ++kds_fetches_;
    obs::metrics().counter("ext.kds_fetch.count").inc();
    SimClock& clock = browser_->network().clock();
    // Retry wraps failover: each attempt sweeps the replica list (skipping
    // open breakers), and the backoff between attempts is what lets an
    // open breaker reach its half-open probe window.
    auto response = net::with_retries(
        clock, retry_jitter_, config_.retry, deadline, "ext.kds_fetch", [&] {
          return kds_failover_.execute(clock, [&](const net::Address& kds) {
            return KdsService::fetch(browser_->network(),
                                     {browser_->host(), 39999}, kds, chip,
                                     tcb);
          });
        });
    span.attr("result", response.ok() ? "ok" : response.error().code);
    return response;
  });
  // Callers that waited for another session's fetch land on the hit side:
  // they paid a wait, not a fetch — the flight timeline should say so.
  if (!fetched) {
    ++vcek_cache_hits_;
    static obs::Counter& hit_count =
        obs::metrics().counter("ext.vcek_cache.hit.count");
    hit_count.inc();
  }
  obs::flight_record(fetched ? obs::FlightEventType::kCacheMiss
                             : obs::FlightEventType::kCacheHit,
                     /*arg=*/1);
  return result;
}

RelyingPartyPolicy WebExtension::site_policy(const std::string& domain) const {
  RelyingPartyPolicy policy;
  if (const auto it = sites_.find(domain); it != sites_.end()) {
    static_cast<SiteRegistration&>(policy) = it->second;
  }
  static_cast<FleetState&>(policy) = config_;
  policy.audit_session_id = config_.audit_session_id;
  policy.chain_cache = chain_cache_;
  return policy;
}

Result<WebExtension::Verified> WebExtension::fetch(
    const std::string& domain, std::uint16_t port,
    const net::HttpRequest& request) {
  if (sites_.count(domain) == 0) {
    return Error::make("extension.site_not_registered", domain);
  }
  obs::Span span("ext.session_validate");
  span.attr("domain", domain);
  span.attr("path", request.path);
  SimClock& clock = browser_->network().clock();
  const net::Deadline deadline =
      config_.attest_deadline_ms > 0.0
          ? net::Deadline::after_ms(clock, config_.attest_deadline_ms)
          : net::Deadline::unlimited();
  auto result = net::with_retries(
      clock, retry_jitter_, config_.retry, deadline, "ext.fetch",
      [&] { return browser_->fetch(domain, port, request); });
  if (!result.ok()) {
    span.attr("mode", "fetch");
    span.attr("result", result.error().code);
    return result.error();
  }

  auto state_it = state_.find(domain);
  const bool need_full_attestation =
      state_it == state_.end() || !state_it->second.attested ||
      result->new_session;

  if (need_full_attestation) {
    span.attr("mode", "attest");
    // The page fetch already holds the session, so the pass starts at
    // fetch_evidence with that key and deadline.
    StagedAttestation staged(*this, domain, port);
    staged.state_ = SessionState::kEvidenceFetch;
    staged.deadline_ = deadline;
    staged.verifier_.policy().expected_payload = result->tls_server_key;
    Status st = Status::success();
    {
      obs::Span attest_span("ext.attest");
      attest_span.attr("domain", domain);
      st = staged.fetch_evidence();
      if (st.ok()) st = staged.fetch_kds();
      if (st.ok()) st = staged.verify();
      attest_span.attr("result",
                       st.ok() ? "ok" : staged.checks().failure_step);
    }
    if (!st.ok()) {
      // Fail closed: the verdict is in last_checks(), the page is not served.
      span.attr("result", st.error().code);
      return st.error();
    }
    span.attr("result", "ok");
    return Verified{std::move(result->response), staged.checks()};
  }

  // Monitoring path: every request runs the tls_binding gate, the
  // connection must still terminate at the attested key (the redirect
  // defence). A failure is a verdict like any attestation's: the kVerdict
  // flight event and one audit record.
  span.attr("mode", "monitor");
  obs::metrics().counter("ext.monitor.count").inc();
  clock.advance_us(SimClock::from_ms(config_.connection_check_overhead_ms));
  RelyingPartyVerifier monitor(site_policy(domain));
  monitor.policy().expected_payload = std::move(result->tls_server_key);
  if (!monitor.check_tls_binding(state_it->second.attested_key)) {
    monitor.record_verdict(false, clock.now_us());
    state_it->second.attested = false;
    state_it->second.checks.tls_binding_ok = false;
    state_it->second.checks.failure =
        "connection re-terminated at a different key";
    state_it->second.checks.failure_step = "tls_binding";
    obs::metrics()
        .counter("ext.monitor.fail.count", {{"reason", "key_changed"}})
        .inc();
    span.attr("result", "extension.connection_hijacked");
    return Error::make("extension.connection_hijacked",
                       "TLS endpoint changed after attestation");
  }
  span.attr("result", "ok");
  return Verified{std::move(result->response), state_it->second.checks};
}

Result<WebExtension::Verified> WebExtension::get(const std::string& domain,
                                                 std::uint16_t port,
                                                 const std::string& path) {
  net::HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.host = domain;
  return fetch(domain, port, request);
}

// --- StagedAttestation ------------------------------------------------------

Status WebExtension::StagedAttestation::wrong_stage(const char* want) const {
  return Error::make("extension.stage_order",
                     std::string("expected stage ") + want);
}

Status WebExtension::StagedAttestation::handshake() {
  if (state_ != SessionState::kHandshake) return wrong_stage("handshake");
  if (ext_->sites_.count(domain_) == 0) {
    return failed(Error::make("extension.site_not_registered", domain_));
  }
  SimClock& clock = ext_->browser_->network().clock();
  deadline_ = ext_->config_.attest_deadline_ms > 0.0
                  ? net::Deadline::after_ms(clock,
                                            ext_->config_.attest_deadline_ms)
                  : net::Deadline::unlimited();
  auto key = ext_->browser_->connect(domain_, port_);
  if (!key.ok()) return failed(key.error());
  verifier_.policy().expected_payload = std::move(*key);
  state_ = SessionState::kEvidenceFetch;
  return Status::success();
}

Status WebExtension::StagedAttestation::fetch_evidence() {
  if (state_ != SessionState::kEvidenceFetch) {
    return wrong_stage("fetch_evidence");
  }
  ++ext_->attestations_;

  // Fetch the evidence from the well-known URL over the same session.
  obs::Span span("ext.evidence_fetch");
  SimClock& clock = ext_->browser_->network().clock();
  auto fetched = net::with_retries(
      clock, ext_->retry_jitter_, ext_->config_.retry, deadline_,
      "ext.evidence_fetch", [&] {
        return ext_->browser_->get(domain_, port_,
                                   "/.well-known/revelio-attestation");
      });
  if (!fetched.ok() || fetched->response.status != 200) {
    span.attr("result", "fetch_failed");
    span.end();
    return conclude(
        verifier_.reject("evidence_fetch", "evidence fetch failed"));
  }
  auto bundle = EvidenceBundle::parse(fetched->response.body);
  if (!bundle.ok()) {
    span.attr("result", "unparseable");
    span.end();
    return conclude(
        verifier_.reject("evidence_parse", "evidence unparseable"));
  }
  span.attr("result", "ok");
  span.end();

  // REPORT_DATA must cover the served payload (the VM's identity key).
  if (!verifier_.check_binding(std::move(*bundle))) return conclude(false);
  state_ = SessionState::kKdsFetch;
  return Status::success();
}

Status WebExtension::StagedAttestation::fetch_kds() {
  if (state_ != SessionState::kKdsFetch) return wrong_stage("fetch_kds");
  auto kds = ext_->fetch_vcek(bundle().report.chip_id,
                              bundle().report.reported_tcb, deadline_);
  if (!kds.ok()) {
    return conclude(verifier_.reject(
        "kds_fetch", "VCEK fetch failed: " + kds.error().to_string()));
  }
  verifier_.set_chain(std::move(*kds));
  state_ = SessionState::kVerify;
  return Status::success();
}

Status WebExtension::StagedAttestation::verify() {
  if (state_ != SessionState::kVerify) return wrong_stage("verify");
  return conclude(verifier_.verify(now_us()));
}

Status WebExtension::StagedAttestation::conclude(bool accepted) {
  verifier_.record_verdict(accepted, now_us());
  const AttestationChecks& checks = verifier_.checks();
  DomainState& state = ext_->state_[domain_];
  state.attested = accepted;
  state.checks = checks;
  obs::metrics()
      .counter("ext.attest.result.count",
               {{"result", accepted ? "ok" : checks.failure_step}})
      .inc();
  if (!accepted) {
    // Fail closed: last_checks() shows why, and the page is never served.
    return failed(Error::make("extension.attestation_failed", checks.failure));
  }
  state.attested_key = bundle().payload;
  state_ = SessionState::kPageFetch;
  return Status::success();
}

Result<net::HttpResponse> WebExtension::StagedAttestation::fetch_page(
    const std::string& path) {
  if (state_ != SessionState::kPageFetch) {
    return wrong_stage("fetch_page").error();
  }
  if (!checks().all_ok()) {  // fail closed: never serve partial trust
    return failed(Error::make("extension.unverified_trust")).error();
  }
  // The session is attested now, so this takes fetch()'s monitoring path
  // (connection-context re-check included).
  auto verified = ext_->get(domain_, port_, path);
  if (!verified.ok()) return failed(verified.error()).error();
  state_ = SessionState::kDone;
  return std::move(verified->response);
}

SessionState WebExtension::StagedAttestation::step(const std::string& path,
                                                   Status& failure) {
  Status st = Status::success();
  switch (state_) {
    case SessionState::kHandshake: st = handshake(); break;
    case SessionState::kEvidenceFetch: st = fetch_evidence(); break;
    case SessionState::kKdsFetch: st = fetch_kds(); break;
    case SessionState::kVerify: st = verify(); break;
    case SessionState::kPageFetch: {
      auto page = fetch_page(path);
      if (page.ok()) {
        page_ = std::move(*page);
      } else {
        st = page.error();
      }
      break;
    }
    default:
      st = Error::make("extension.stage_order", "the pass is finished");
      break;
  }
  if (st.ok()) return state_;
  failure = std::move(st);
  return SessionState::kFailed;
}

std::vector<Status> batch_verify_sessions(
    const std::vector<WebExtension::StagedAttestation*>& sessions) {
  using StagedAttestation = WebExtension::StagedAttestation;
  std::vector<Status> out(sessions.size(), Status::success());

  // Per-session prepare: chain walk, key/signature decode, signed-body
  // digest. A failure is terminal for that slot and bookkept exactly like a
  // failed verify(); the slot simply doesn't join the signature batch.
  std::vector<crypto::EcdsaBatchItem> items;
  std::vector<std::size_t> slots;  // items[j] belongs to sessions[slots[j]]
  items.reserve(sessions.size());
  slots.reserve(sessions.size());
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    StagedAttestation* session = sessions[k];
    if (session == nullptr) {
      out[k] = Error::make("extension.no_session", "null pass in the batch");
      continue;
    }
    obs::ScopedSessionRecord bind(session->record_);
    if (session->state_ != SessionState::kVerify) {
      out[k] = session->wrong_stage("verify");
      continue;
    }
    auto prep = session->verifier_.prepare(session->now_us());
    if (!prep) {
      out[k] = session->conclude(false);
      continue;
    }
    crypto::EcdsaBatchItem item;
    item.pub = prep->vcek_pub;
    append(item.msg_hash, prep->digest.view());
    item.sig = prep->signature;
    items.push_back(std::move(item));
    slots.push_back(k);
  }
  if (items.empty()) return out;

  // The VCEK is a well-known base every session of this gateway verifies
  // against: pin its precomputed tables process-wide, once per key.
  std::vector<const crypto::Curve::Point*> pinned;
  for (const auto& item : items) {
    const bool seen = std::any_of(
        pinned.begin(), pinned.end(), [&](const crypto::Curve::Point* p) {
          return p->x == item.pub.x && p->y == item.pub.y;
        });
    if (seen) continue;
    crypto::p384().pin_verify_tables(item.pub);
    pinned.push_back(&item.pub);
  }

  // ONE interleaved multi-scalar pass over every prepared signature; the
  // per-signature offender fallback lives inside ecdsa_verify_batch, so a
  // forged signature fails exactly its own session.
  obs::Span span("sevsnp.batch_signature_verify");
  span.attr("batch", static_cast<std::uint64_t>(items.size()));
  const std::vector<bool> verdicts =
      crypto::ecdsa_verify_batch(crypto::p384(), items);
  std::size_t rejected = 0;
  for (std::size_t j = 0; j < slots.size(); ++j) {
    rejected += verdicts[j] ? 0 : 1;
    StagedAttestation& session = *sessions[slots[j]];
    obs::ScopedSessionRecord bind(session.record_);
    out[slots[j]] = session.conclude(session.verifier_.finish(verdicts[j]));
  }
  span.attr("rejected", static_cast<std::uint64_t>(rejected));
  return out;
}

}  // namespace revelio::core
