#include "revelio/trusted_registry.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace revelio::core {

void TrustedRegistry::publish(const std::string& service,
                              const sevsnp::Measurement& measurement) {
  good_.insert({service, measurement.bytes()});
}

bool TrustedRegistry::is_acceptable(const std::string& service,
                                    const sevsnp::Measurement& m) const {
  obs::Span span("registry.lookup");
  span.attr("service", service);
  const bool acceptable = good_.count({service, m.bytes()}) > 0;
  const char* result = acceptable ? "acceptable" : "unknown";
  span.attr("result", result);
  obs::metrics().counter("registry.lookup.count", {{"result", result}}).inc();
  return acceptable;
}

void TrustedRegistry::register_voter(const std::string& voter) {
  voters_.insert(voter);
}

std::uint64_t TrustedRegistry::propose(const std::string& service,
                                       const sevsnp::Measurement& m) {
  const std::uint64_t id = next_proposal_++;
  Proposal proposal;
  proposal.service = service;
  proposal.measurement = m;
  proposals_[id] = std::move(proposal);
  return id;
}

Status TrustedRegistry::vote(std::uint64_t proposal_id,
                             const std::string& voter, bool approve) {
  const auto it = proposals_.find(proposal_id);
  if (it == proposals_.end()) {
    return Error::make("registry.no_such_proposal");
  }
  if (voters_.count(voter) == 0) {
    return Error::make("registry.not_a_voter", voter);
  }
  Proposal& proposal = it->second;
  if (proposal.adopted || proposal.rejected) {
    return Error::make("registry.proposal_closed");
  }
  if (proposal.yes.count(voter) || proposal.no.count(voter)) {
    return Error::make("registry.already_voted", voter);
  }
  (approve ? proposal.yes : proposal.no).insert(voter);

  const std::size_t quorum = voters_.size() / 2 + 1;
  if (proposal.yes.size() >= quorum) {
    proposal.adopted = true;
    publish(proposal.service, proposal.measurement);
  } else if (proposal.no.size() >= quorum) {
    proposal.rejected = true;
  }
  return Status::success();
}

Result<TrustedRegistry::Proposal> TrustedRegistry::proposal(
    std::uint64_t id) const {
  const auto it = proposals_.find(id);
  if (it == proposals_.end()) {
    return Error::make("registry.no_such_proposal");
  }
  return it->second;
}

}  // namespace revelio::core
