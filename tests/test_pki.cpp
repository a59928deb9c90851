#include <gtest/gtest.h>

#include <map>

#include "pki/acme.hpp"
#include "pki/ca.hpp"
#include "pki/cert.hpp"
#include "pki/chain_cache.hpp"

namespace revelio::pki {
namespace {

using crypto::HmacDrbg;

constexpr std::uint64_t kYearUs = 365ull * 24 * 3600 * 1000 * 1000;

struct PkiFixture : ::testing::Test {
  PkiFixture()
      : drbg(to_bytes(std::string_view("pki-tests"))),
        root(CertificateAuthority::create_root(
            crypto::p384(), {"Test Root", "TestOrg", "US"}, 0, 10 * kYearUs,
            drbg)),
        inter(CertificateAuthority::create_intermediate(
            crypto::p384(), {"Test Intermediate", "TestOrg", "US"}, 0,
            5 * kYearUs, root, drbg)) {}

  Certificate issue_leaf(const std::string& cn,
                         std::vector<std::string> sans,
                         std::uint64_t not_before = 0,
                         std::uint64_t not_after = kYearUs) {
    const auto key = crypto::ec_generate(crypto::p256(), drbg);
    const auto csr = make_csr(crypto::p256(), key, {cn, "Leaf", "US"},
                              std::move(sans));
    auto cert = inter.issue(csr, not_before, not_after);
    EXPECT_TRUE(cert.ok());
    return *cert;
  }

  HmacDrbg drbg;
  CertificateAuthority root;
  CertificateAuthority inter;
};

TEST_F(PkiFixture, CertificateSerializationRoundTrip) {
  const auto cert = issue_leaf("example.com", {"example.com", "www.example.com"});
  const Bytes wire = cert.serialize();
  auto parsed = Certificate::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->subject.common_name, "example.com");
  EXPECT_EQ(parsed->san_dns.size(), 2u);
  EXPECT_EQ(parsed->serialize(), wire);
  EXPECT_EQ(parsed->fingerprint(), cert.fingerprint());
}

TEST_F(PkiFixture, ParseRejectsGarbage) {
  EXPECT_FALSE(Certificate::parse({}).ok());
  EXPECT_FALSE(Certificate::parse(to_bytes(std::string_view("nonsense"))).ok());
  Bytes wire = issue_leaf("a.com", {"a.com"}).serialize();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(Certificate::parse(wire).ok());
}

TEST_F(PkiFixture, ChainVerifies) {
  const auto leaf = issue_leaf("site.example", {"site.example"});
  ChainVerifyOptions options;
  options.now_us = kYearUs / 2;
  options.dns_name = "site.example";
  EXPECT_TRUE(verify_chain(leaf, {inter.certificate()}, {root.certificate()},
                           options)
                  .ok());
}

TEST_F(PkiFixture, ChainFailsWithoutIntermediate) {
  const auto leaf = issue_leaf("site.example", {"site.example"});
  ChainVerifyOptions options;
  options.now_us = kYearUs / 2;
  const auto st = verify_chain(leaf, {}, {root.certificate()}, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "pki.untrusted");
}

TEST_F(PkiFixture, ChainFailsWithWrongRoot) {
  HmacDrbg other_drbg(to_bytes(std::string_view("other-root")));
  auto other_root = CertificateAuthority::create_root(
      crypto::p384(), {"Evil Root", "Evil", "US"}, 0, 10 * kYearUs,
      other_drbg);
  const auto leaf = issue_leaf("site.example", {"site.example"});
  ChainVerifyOptions options;
  options.now_us = kYearUs / 2;
  EXPECT_FALSE(verify_chain(leaf, {inter.certificate()},
                            {other_root.certificate()}, options)
                   .ok());
}

TEST_F(PkiFixture, ExpiredLeafRejected) {
  const auto leaf = issue_leaf("site.example", {"site.example"}, 0, kYearUs);
  ChainVerifyOptions options;
  options.now_us = 2 * kYearUs;  // after expiry
  const auto st = verify_chain(leaf, {inter.certificate()},
                               {root.certificate()}, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "pki.cert_expired");
}

// The validity window is half-open: [not_before, not_after). A clock that
// lands EXACTLY on not_after must reject — "valid through the last
// microsecond" off-by-ones on either side of the boundary are a classic
// expiry-edge bug (a certificate that validates at its own expiry instant
// is honoured one tick too long, fleet-wide).
TEST_F(PkiFixture, ExpiryBoundaryIsHalfOpen) {
  const auto leaf = issue_leaf("site.example", {"site.example"}, 0, kYearUs);
  ChainVerifyOptions options;
  options.dns_name = "site.example";
  options.now_us = kYearUs - 1;  // last valid instant
  EXPECT_TRUE(verify_chain(leaf, {inter.certificate()}, {root.certificate()},
                           options)
                  .ok());
  options.now_us = kYearUs;  // exactly not_after: expired
  const auto st = verify_chain(leaf, {inter.certificate()},
                               {root.certificate()}, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "pki.cert_expired");
  // And the lower bound is closed: not_before itself is valid.
  const auto future =
      issue_leaf("site.example", {"site.example"}, kYearUs, 2 * kYearUs);
  options.now_us = kYearUs;
  EXPECT_TRUE(verify_chain(future, {inter.certificate()},
                           {root.certificate()}, options)
                  .ok());
}

TEST_F(PkiFixture, NotYetValidLeafRejected) {
  const auto leaf =
      issue_leaf("site.example", {"site.example"}, kYearUs, 2 * kYearUs);
  ChainVerifyOptions options;
  options.now_us = kYearUs / 2;
  EXPECT_FALSE(verify_chain(leaf, {inter.certificate()},
                            {root.certificate()}, options)
                   .ok());
}

TEST_F(PkiFixture, DnsNameMismatchRejected) {
  const auto leaf = issue_leaf("site.example", {"site.example"});
  ChainVerifyOptions options;
  options.now_us = kYearUs / 2;
  options.dns_name = "other.example";
  const auto st = verify_chain(leaf, {inter.certificate()},
                               {root.certificate()}, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "pki.name_mismatch");
}

TEST_F(PkiFixture, TamperedCertificateSignatureFails) {
  auto leaf = issue_leaf("site.example", {"site.example"});
  leaf.san_dns.push_back("injected.example");  // mutate after signing
  ChainVerifyOptions options;
  options.now_us = kYearUs / 2;
  EXPECT_FALSE(verify_chain(leaf, {inter.certificate()},
                            {root.certificate()}, options)
                   .ok());
}

TEST_F(PkiFixture, LeafCannotActAsCa) {
  // A leaf (is_ca=false) tries to issue; chain verification must reject the
  // non-CA link.
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  const auto csr =
      make_csr(crypto::p256(), key, {"leaf-ca", "X", "US"}, {"leaf-ca"});
  auto leaf_cert = inter.issue(csr, 0, kYearUs, /*is_ca=*/false);
  ASSERT_TRUE(leaf_cert.ok());

  // Hand-craft a child signed by the leaf key.
  Certificate child;
  child.serial = 99;
  child.subject = {"victim.example", "X", "US"};
  child.issuer = leaf_cert->subject;
  child.not_before_us = 0;
  child.not_after_us = kYearUs;
  child.curve_name = "P-256";
  const auto child_key = crypto::ec_generate(crypto::p256(), drbg);
  child.public_key = child_key.public_encoded(crypto::p256());
  child.san_dns = {"victim.example"};
  child.sig_curve_name = "P-256";
  const auto hash = crypto::sha384(child.tbs());
  child.signature =
      crypto::ecdsa_sign(crypto::p256(), key.d, hash.view())
          .encode(crypto::p256());

  ChainVerifyOptions options;
  options.now_us = kYearUs / 2;
  const auto st = verify_chain(child, {*leaf_cert, inter.certificate()},
                               {root.certificate()}, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "pki.intermediate_not_ca");
}

TEST_F(PkiFixture, WildcardSanMatching) {
  const auto leaf = issue_leaf("w.example", {"*.example.com"});
  EXPECT_TRUE(leaf.matches_dns("api.example.com"));
  EXPECT_FALSE(leaf.matches_dns("example.com"));
  EXPECT_FALSE(leaf.matches_dns("a.b.example.com"))
      << "wildcard must only cover one label";
}

TEST_F(PkiFixture, CommonNameFallbackOnlyWithoutSans) {
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  const auto csr = make_csr(crypto::p256(), key, {"cn.example", "X", "US"}, {});
  auto cert = inter.issue(csr, 0, kYearUs);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->matches_dns("cn.example"));
  const auto with_san = issue_leaf("cn.example", {"other.example"});
  EXPECT_FALSE(with_san.matches_dns("cn.example"))
      << "CN fallback must be disabled when SANs are present";
}

TEST_F(PkiFixture, CsrVerifyDetectsTamper) {
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  auto csr = make_csr(crypto::p256(), key, {"host", "X", "US"}, {"host"});
  EXPECT_TRUE(csr.verify());
  csr.san_dns[0] = "evil";
  EXPECT_FALSE(csr.verify());
}

TEST_F(PkiFixture, CsrSerializationRoundTrip) {
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  const auto csr =
      make_csr(crypto::p256(), key, {"host", "X", "US"}, {"host", "alt"});
  auto parsed = CertificateSigningRequest::parse(csr.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->verify());
  EXPECT_EQ(parsed->digest(), csr.digest());
  EXPECT_EQ(parsed->san_dns, csr.san_dns);
}

TEST_F(PkiFixture, CaRejectsBadCsr) {
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  auto csr = make_csr(crypto::p256(), key, {"host", "X", "US"}, {"host"});
  csr.subject.common_name = "tampered";
  const auto r = inter.issue(csr, 0, kYearUs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "ca.bad_csr");
}

TEST(CurveByName, KnownAndUnknown) {
  EXPECT_TRUE(curve_by_name("P-256").ok());
  EXPECT_TRUE(curve_by_name("P-384").ok());
  EXPECT_FALSE(curve_by_name("P-521").ok());
}

// ------------------------------------------------------------------ ACME

struct AcmeFixture : ::testing::Test {
  AcmeFixture()
      : drbg(to_bytes(std::string_view("acme-tests"))),
        issuer(clock, drbg) {}

  DnsTxtLookup dns_lookup() {
    return [this](const std::string& name) {
      const auto it = dns.find(name);
      return it == dns.end() ? std::vector<std::string>{} : it->second;
    };
  }

  CertificateSigningRequest domain_csr(const std::string& domain) {
    const auto key = crypto::ec_generate(crypto::p256(), drbg);
    return make_csr(crypto::p256(), key, {domain, "Svc", "US"}, {domain});
  }

  SimClock clock;
  HmacDrbg drbg;
  AcmeIssuer issuer;
  std::map<std::string, std::vector<std::string>> dns;
};

TEST_F(AcmeFixture, HappyPathIssuance) {
  const std::string token = issuer.request_challenge("acct", "svc.example.com");
  dns["_acme-challenge.svc.example.com"] = {token};
  const auto csr = domain_csr("svc.example.com");
  auto cert = issuer.finalize("acct", csr, dns_lookup());
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->matches_dns("svc.example.com"));

  ChainVerifyOptions options;
  options.now_us = clock.now_us();
  options.dns_name = "svc.example.com";
  EXPECT_TRUE(verify_chain(*cert, issuer.intermediates(),
                           issuer.trusted_roots(), options)
                  .ok());
}

TEST_F(AcmeFixture, IssuanceChargesLatency) {
  const std::string token = issuer.request_challenge("acct", "svc.example.com");
  dns["_acme-challenge.svc.example.com"] = {token};
  const auto before = clock.now_us();
  ASSERT_TRUE(issuer.finalize("acct", domain_csr("svc.example.com"),
                              dns_lookup())
                  .ok());
  EXPECT_GT(clock.now_us() - before, 1'000'000u)
      << "cert generation should dominate Table 2";
}

TEST_F(AcmeFixture, MissingChallengeRejected) {
  const auto r =
      issuer.finalize("acct", domain_csr("svc.example.com"), dns_lookup());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "acme.no_challenge");
}

TEST_F(AcmeFixture, WrongTokenRejected) {
  issuer.request_challenge("acct", "svc.example.com");
  dns["_acme-challenge.svc.example.com"] = {"not-the-token"};
  const auto r =
      issuer.finalize("acct", domain_csr("svc.example.com"), dns_lookup());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "acme.challenge_failed");
}

TEST_F(AcmeFixture, ChallengeIsAccountScoped) {
  const std::string token =
      issuer.request_challenge("acct-a", "svc.example.com");
  dns["_acme-challenge.svc.example.com"] = {token};
  EXPECT_FALSE(issuer
                   .finalize("acct-b", domain_csr("svc.example.com"),
                             dns_lookup())
                   .ok());
}

TEST_F(AcmeFixture, RateLimitEnforced) {
  AcmeConfig config;
  config.certs_per_domain = 3;
  AcmeIssuer limited(clock, drbg, config);
  for (int i = 0; i < 3; ++i) {
    const std::string domain =
        "node" + std::to_string(i) + ".svc.example.com";
    const std::string token = limited.request_challenge("acct", domain);
    dns["_acme-challenge." + domain] = {token};
    ASSERT_TRUE(limited.finalize("acct", domain_csr(domain), dns_lookup()).ok());
  }
  EXPECT_EQ(limited.issued_in_window("example.com"), 3u);
  const std::string domain = "node3.svc.example.com";
  const std::string token = limited.request_challenge("acct", domain);
  dns["_acme-challenge." + domain] = {token};
  const auto r = limited.finalize("acct", domain_csr(domain), dns_lookup());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "acme.rate_limited");
}

TEST_F(AcmeFixture, RateLimitWindowSlides) {
  AcmeConfig config;
  config.certs_per_domain = 1;
  AcmeIssuer limited(clock, drbg, config);
  auto issue_once = [&](const std::string& domain) {
    const std::string token = limited.request_challenge("acct", domain);
    dns["_acme-challenge." + domain] = {token};
    return limited.finalize("acct", domain_csr(domain), dns_lookup());
  };
  ASSERT_TRUE(issue_once("a.example.com").ok());
  EXPECT_FALSE(issue_once("b.example.com").ok());
  clock.advance_us(config.rate_window_us + 1);
  EXPECT_TRUE(issue_once("b.example.com").ok())
      << "old issuances must age out of the sliding window";
}

TEST_F(AcmeFixture, EmptyCsrRejected) {
  const auto key = crypto::ec_generate(crypto::p256(), drbg);
  const auto csr = make_csr(crypto::p256(), key, {"x", "X", "US"}, {});
  EXPECT_EQ(issuer.finalize("acct", csr, dns_lookup()).error().code,
            "acme.no_identifiers");
}

// ------------------------------------------- chain verification cache

struct ChainCacheFixture : PkiFixture {
  ChainVerifyOptions at(std::uint64_t now_us,
                        std::optional<std::string> dns = {}) const {
    ChainVerifyOptions options;
    options.now_us = now_us;
    options.dns_name = std::move(dns);
    return options;
  }
};

TEST_F(ChainCacheFixture, SecondVerificationIsAHit) {
  ChainVerificationCache cache;
  const auto leaf = issue_leaf("site.example", {"site.example"});
  const std::vector<Certificate> inters{inter.certificate()};
  const std::vector<Certificate> roots{root.certificate()};
  EXPECT_TRUE(cache.verify(leaf, inters, roots, at(1)).ok());
  EXPECT_TRUE(cache.verify(leaf, inters, roots, at(2)).ok());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ChainCacheFixture, FailuresAreNeverCached) {
  ChainVerificationCache cache;
  const auto leaf = issue_leaf("site.example", {"site.example"});
  const std::vector<Certificate> roots{root.certificate()};
  // Missing intermediate: fails both times, and nothing is cached.
  EXPECT_FALSE(cache.verify(leaf, {}, roots, at(1)).ok());
  EXPECT_FALSE(cache.verify(leaf, {}, roots, at(1)).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(ChainCacheFixture, HitRespectsValidityWindow) {
  ChainVerificationCache cache;
  const auto leaf = issue_leaf("site.example", {"site.example"}, 0, kYearUs);
  const std::vector<Certificate> inters{inter.certificate()};
  const std::vector<Certificate> roots{root.certificate()};
  EXPECT_TRUE(cache.verify(leaf, inters, roots, at(1)).ok());
  // Past the leaf's expiry the cached success must not be served; the
  // re-verification then fails on expiry like the uncached path.
  EXPECT_FALSE(cache.verify(leaf, inters, roots, at(kYearUs + 1)).ok());
  EXPECT_EQ(cache.stats().window_rejects, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(ChainCacheFixture, RotatedRootChangesTheKey) {
  ChainVerificationCache cache;
  HmacDrbg other_drbg(to_bytes(std::string_view("other-root")));
  auto other_root = CertificateAuthority::create_root(
      crypto::p384(), {"Other Root", "OtherOrg", "US"}, 0, 10 * kYearUs,
      other_drbg);
  const auto leaf = issue_leaf("site.example", {"site.example"});
  const std::vector<Certificate> inters{inter.certificate()};
  EXPECT_TRUE(cache.verify(leaf, inters, {root.certificate()}, at(1)).ok());
  // Same chain against a rotated root set: different key, full
  // re-verification (which fails — the chain doesn't reach the new root).
  EXPECT_FALSE(
      cache.verify(leaf, inters, {other_root.certificate()}, at(1)).ok());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(ChainCacheFixture, DnsConstraintIsPartOfTheKey) {
  ChainVerificationCache cache;
  const auto leaf = issue_leaf("site.example", {"site.example"});
  const std::vector<Certificate> inters{inter.certificate()};
  const std::vector<Certificate> roots{root.certificate()};
  EXPECT_TRUE(
      cache.verify(leaf, inters, roots, at(1, "site.example")).ok());
  // Verifying without the name constraint must not reuse the entry.
  EXPECT_TRUE(cache.verify(leaf, inters, roots, at(1)).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(ChainCacheFixture, LruEvictionIsBounded) {
  ChainVerificationCache cache(/*capacity=*/2);
  const std::vector<Certificate> inters{inter.certificate()};
  const std::vector<Certificate> roots{root.certificate()};
  const auto a = issue_leaf("a.example", {"a.example"});
  const auto b = issue_leaf("b.example", {"b.example"});
  const auto c = issue_leaf("c.example", {"c.example"});
  EXPECT_TRUE(cache.verify(a, inters, roots, at(1)).ok());
  EXPECT_TRUE(cache.verify(b, inters, roots, at(1)).ok());
  // Touch `a` so `b` is the LRU entry when `c` forces an eviction.
  EXPECT_TRUE(cache.verify(a, inters, roots, at(1)).ok());
  EXPECT_TRUE(cache.verify(c, inters, roots, at(1)).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // `a` survived, `b` was evicted.
  EXPECT_TRUE(cache.verify(a, inters, roots, at(1)).ok());
  EXPECT_TRUE(cache.verify(b, inters, roots, at(1)).ok());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);    // a touched, a after the eviction round
  EXPECT_EQ(stats.misses, 4u);  // a, b, c, b re-verified
}

}  // namespace
}  // namespace revelio::pki
