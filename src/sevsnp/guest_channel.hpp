// Protected guest <-> AMD-SP message channel.
//
// Models the SNP guest request interface: at launch the AMD-SP provisions
// the guest with a VM Platform Communication Key (VMPCK); every
// MSG_REPORT_REQ / MSG_KEY_REQ exchange is AEAD-sealed under it with
// strictly increasing sequence numbers. The hypervisor shuttles the
// ciphertexts but can neither read nor forge nor replay them — the
// property the paper's "trusted path between the AMD-SP and the VM"
// (§2.1.1, §2.1.3) provides.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/sim_clock.hpp"
#include "crypto/modes.hpp"
#include "net/resilience.hpp"
#include "sevsnp/amd_sp.hpp"

namespace revelio::sevsnp {

class GuestChannel {
 public:
  /// The hypervisor shuttle: carries a sealed request to the SP and brings
  /// the sealed response back. The default transport delivers directly;
  /// tests and the chaos layer install flaky ones.
  using Transport = std::function<Result<Bytes>(ByteView sealed_request)>;
  /// Opens the channel for the currently running guest; fails if no
  /// measured guest is active.
  static Result<GuestChannel> open(AmdSp& sp);

  /// MSG_REPORT_REQ: attestation report with caller-chosen REPORT_DATA.
  Result<AttestationReport> request_report(const ReportData& report_data);

  /// MSG_KEY_REQ: derived (sealing) key.
  Result<Bytes> request_key(const KeyDerivationPolicy& policy,
                            std::size_t length = 32);

  /// MSG_COUNTER_REQ: reads (increment=false) or advances-and-returns
  /// (increment=true) one of the AMD-SP's measurement-bound monotonic
  /// counter slots — the guest's rollback-defence primitive.
  Result<std::uint64_t> request_counter(std::size_t index, bool increment);

  /// Low-level entry point used by attack tests: delivers an arbitrary
  /// sealed request to the SP side, as a malicious hypervisor would.
  Result<Bytes> deliver_to_sp(ByteView sealed_request);

  /// Guest-side sealing of a plaintext request at the *current* sequence
  /// number, without advancing it — lets tests construct replays.
  Bytes seal_request(ByteView plaintext) const;

  /// Replaces the hypervisor shuttle (pass nullptr to restore the direct
  /// path). The shuttle is untrusted: it may drop or corrupt ciphertexts,
  /// never read or forge them.
  void set_transport(Transport transport) {
    transport_ = std::move(transport);
  }

  /// Arms transport retries: a transiently lost *request* is resent
  /// verbatim (safe — the SP never saw it, so the sequence still matches).
  /// If the SP processed the request and the *response* was lost, the
  /// resend fails authentication and the channel fails closed with
  /// `snp.channel_auth_failed`: the guest cannot distinguish that from a
  /// replay attack and must not silently resynchronise.
  void set_resilience(SimClock& clock, net::RetryPolicy policy) {
    clock_ = &clock;
    retry_ = policy;
  }

 private:
  GuestChannel(AmdSp& sp, Bytes vmpck);

  Result<Bytes> transact(ByteView plaintext_request);
  Result<Bytes> handle_request(ByteView plaintext) const;

  AmdSp* sp_;
  crypto::AeadCtrHmac aead_;
  std::uint64_t guest_seq_ = 1;  // next request sequence number
  std::uint64_t sp_expected_seq_ = 1;
  Transport transport_;
  SimClock* clock_ = nullptr;
  std::optional<net::RetryPolicy> retry_;
  crypto::HmacDrbg retry_jitter_{to_bytes("guest-channel-retry-jitter")};
};

}  // namespace revelio::sevsnp
