// Trusted registry of "golden" measurements (§3.4.7, D2).
//
// End-users who cannot rebuild the image themselves delegate the judgement
// of what a good measurement is: to an auditing company, or to an on-chain
// DAO where the community votes (the paper names the Internet Computer's
// NNS). This registry models both: direct publication by an auditor, and
// quorum voting. It answers only "published": revoking an obsolete release
// (what stops the §6.1.4 rollback) is a RevocationSet entry, which every
// relying party checks before any signature work, pinned or delegated.
#pragma once

#include <map>
#include <set>
#include <string>

#include "common/result.hpp"
#include "sevsnp/attestation_report.hpp"

namespace revelio::core {

class TrustedRegistry {
 public:
  // --- Auditor path: direct publication -------------------------------

  /// Publishes a measurement as good for `service` (e.g. a new release).
  void publish(const std::string& service,
               const sevsnp::Measurement& measurement);

  /// The check verifiers call: has `measurement` been published for
  /// `service`?
  bool is_acceptable(const std::string& service,
                     const sevsnp::Measurement& measurement) const;

  // --- DAO path: community voting --------------------------------------

  /// Registers an eligible voter (an NNS neuron, in IC terms).
  void register_voter(const std::string& voter);

  /// Opens a proposal to bless `measurement` for `service`; returns its id.
  std::uint64_t propose(const std::string& service,
                        const sevsnp::Measurement& measurement);

  /// Casts a vote. When yes-votes reach a strict majority of registered
  /// voters, the measurement is published automatically.
  Status vote(std::uint64_t proposal_id, const std::string& voter,
              bool approve);

  struct Proposal {
    std::string service;
    sevsnp::Measurement measurement;
    std::set<std::string> yes;
    std::set<std::string> no;
    bool adopted = false;
    bool rejected = false;
  };
  Result<Proposal> proposal(std::uint64_t id) const;

 private:
  using Key = std::pair<std::string, Bytes>;  // (service, measurement bytes)

  std::set<Key> good_;
  std::set<std::string> voters_;
  std::map<std::uint64_t, Proposal> proposals_;
  std::uint64_t next_proposal_ = 1;
};

}  // namespace revelio::core
