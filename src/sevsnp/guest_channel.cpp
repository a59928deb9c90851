#include "sevsnp/guest_channel.hpp"

#include "obs/metrics.hpp"

namespace revelio::sevsnp {

namespace {

constexpr std::uint8_t kMsgReportReq = 1;
constexpr std::uint8_t kMsgKeyReq = 2;
constexpr std::uint8_t kMsgCounterReq = 4;

// Directions keep request and response nonce spaces disjoint.
constexpr std::uint8_t kDirGuestToSp = 0x47;  // 'G'
constexpr std::uint8_t kDirSpToGuest = 0x53;  // 'S'

FixedBytes<16> make_nonce(std::uint8_t direction, std::uint64_t seq) {
  FixedBytes<16> nonce;
  nonce[0] = direction;
  for (int i = 0; i < 8; ++i) {
    nonce[8 + i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  }
  return nonce;
}

Bytes make_aad(std::uint8_t direction, std::uint64_t seq) {
  Bytes aad;
  append_u8(aad, direction);
  append_u64be(aad, seq);
  return aad;
}

}  // namespace

GuestChannel::GuestChannel(AmdSp& sp, Bytes vmpck)
    : sp_(&sp), aead_(vmpck) {}

Result<GuestChannel> GuestChannel::open(AmdSp& sp) {
  // The VMPCK is measurement-bound: a different guest on the same chip gets
  // a different channel key.
  KeyDerivationPolicy policy;
  policy.mix_measurement = true;
  policy.context = "vmpck-0";
  auto vmpck = sp.derive_key(policy, crypto::AeadCtrHmac::kKeySize);
  if (!vmpck.ok()) return vmpck.error();
  return GuestChannel(sp, std::move(*vmpck));
}

Bytes GuestChannel::seal_request(ByteView plaintext) const {
  return aead_.seal(make_nonce(kDirGuestToSp, guest_seq_).view(),
                    make_aad(kDirGuestToSp, guest_seq_), plaintext);
}

Result<Bytes> GuestChannel::deliver_to_sp(ByteView sealed_request) {
  // SP side: unseal at the expected sequence number; a replayed or reordered
  // message fails authentication because the AAD embeds the sequence.
  auto plaintext = aead_.open(make_aad(kDirGuestToSp, sp_expected_seq_),
                              sealed_request);
  if (!plaintext.ok()) {
    obs::metrics()
        .counter("sevsnp.channel.auth_fail.count", {{"side", "sp"}})
        .inc();
    return Error::make("snp.channel_auth_failed",
                       "sealed request rejected (replay or tamper?)");
  }
  const std::uint64_t seq = sp_expected_seq_++;
  auto response = handle_request(*plaintext);
  if (!response.ok()) return response.error();
  return aead_.seal(make_nonce(kDirSpToGuest, seq).view(),
                    make_aad(kDirSpToGuest, seq), *response);
}

Result<Bytes> GuestChannel::handle_request(ByteView plaintext) const {
  if (plaintext.empty()) return Error::make("snp.empty_request");
  const std::uint8_t type = plaintext[0];
  const ByteView body = plaintext.subspan(1);
  switch (type) {
    case kMsgReportReq: {
      if (body.size() != ReportData::size()) {
        return Error::make("snp.bad_report_data_size");
      }
      auto report = sp_->get_report(ReportData::from(body));
      if (!report.ok()) return report.error();
      return report->serialize();
    }
    case kMsgKeyReq: {
      if (body.size() < 1 + 1 + 4 + 4) {
        return Error::make("snp.bad_key_request");
      }
      KeyDerivationPolicy policy;
      policy.mix_measurement = body[0] != 0;
      policy.mix_policy = body[1] != 0;
      const std::uint32_t ctx_len = read_u32be(body, 2);
      if (6 + ctx_len + 4 > body.size()) {
        return Error::make("snp.bad_key_request", "context length");
      }
      policy.context = to_string(body.subspan(6, ctx_len));
      const std::uint32_t key_len = read_u32be(body, 6 + ctx_len);
      if (key_len == 0 || key_len > 1024) {
        return Error::make("snp.bad_key_request", "key length");
      }
      return sp_->derive_key(policy, key_len);
    }
    case kMsgCounterReq: {
      // Body: u8 slot index, u8 op (0 = read, 1 = increment). Anything
      // else — wrong size, unknown op — is rejected before touching the
      // counter, so a fuzzed body can never move a slot.
      if (body.size() != 2) return Error::make("snp.bad_counter_request");
      if (body[1] > 1) {
        return Error::make("snp.bad_counter_request", "unknown op");
      }
      auto value = body[1] == 1 ? sp_->counter_increment(body[0])
                                : sp_->counter_read(body[0]);
      if (!value.ok()) return value.error();
      Bytes response;
      append_u64be(response, *value);
      return response;
    }
    default:
      return Error::make("snp.unknown_message_type");
  }
}

Result<Bytes> GuestChannel::transact(ByteView plaintext_request) {
  const std::uint64_t seq = guest_seq_;
  const Bytes sealed = seal_request(plaintext_request);
  ++guest_seq_;
  const auto shuttle = [&]() -> Result<Bytes> {
    return transport_ ? transport_(sealed) : deliver_to_sp(sealed);
  };
  auto sealed_response =
      clock_ != nullptr && retry_
          ? net::with_retries(*clock_, retry_jitter_, *retry_,
                              net::Deadline::unlimited(), "snp.guest_channel",
                              shuttle)
          : shuttle();
  if (!sealed_response.ok()) return sealed_response.error();
  auto response =
      aead_.open(make_aad(kDirSpToGuest, seq), *sealed_response);
  if (!response.ok()) {
    obs::metrics()
        .counter("sevsnp.channel.auth_fail.count", {{"side", "guest"}})
        .inc();
    return Error::make("snp.channel_auth_failed", "response rejected");
  }
  return response;
}

Result<AttestationReport> GuestChannel::request_report(
    const ReportData& report_data) {
  Bytes request;
  append_u8(request, kMsgReportReq);
  append(request, report_data.view());
  auto response = transact(request);
  if (!response.ok()) return response.error();
  return AttestationReport::parse(*response);
}

Result<std::uint64_t> GuestChannel::request_counter(std::size_t index,
                                                    bool increment) {
  Bytes request;
  append_u8(request, kMsgCounterReq);
  append_u8(request, static_cast<std::uint8_t>(index));
  append_u8(request, increment ? 1 : 0);
  auto response = transact(request);
  if (!response.ok()) return response.error();
  if (response->size() != 8) {
    return Error::make("snp.bad_counter_response");
  }
  return read_u64be(*response, 0);
}

Result<Bytes> GuestChannel::request_key(const KeyDerivationPolicy& policy,
                                        std::size_t length) {
  Bytes request;
  append_u8(request, kMsgKeyReq);
  append_u8(request, policy.mix_measurement ? 1 : 0);
  append_u8(request, policy.mix_policy ? 1 : 0);
  append_u32be(request, static_cast<std::uint32_t>(policy.context.size()));
  append(request, policy.context);
  append_u32be(request, static_cast<std::uint32_t>(length));
  return transact(request);
}

}  // namespace revelio::sevsnp
