#include "sevsnp/attestation_report.hpp"

namespace revelio::sevsnp {

namespace {
constexpr std::string_view kTag = "SNP-REPORT-V2";
}

Bytes AttestationReport::signed_body() const {
  Bytes out;
  append(out, kTag);
  append_u32be(out, version);
  append_u64be(out, guest_policy);
  append(out, measurement.view());
  append(out, report_data.view());
  append(out, chip_id.view());
  append_u64be(out, reported_tcb.encode());
  append_u32be(out, vmpl);
  return out;
}

Bytes AttestationReport::serialize() const {
  Bytes out = signed_body();
  append_u32be(out, static_cast<std::uint32_t>(signature.size()));
  append(out, signature);
  return out;
}

Result<AttestationReport> AttestationReport::parse(ByteView data) {
  const std::size_t body_len = kTag.size() + 4 + 8 + 48 + 64 + 64 + 8 + 4;
  if (data.size() < body_len + 4) {
    return Error::make("snp.report_truncated");
  }
  if (to_string(data.subspan(0, kTag.size())) != kTag) {
    return Error::make("snp.bad_report_tag");
  }
  AttestationReport report;
  std::size_t off = kTag.size();
  report.version = read_u32be(data, off);
  off += 4;
  report.guest_policy = read_u64be(data, off);
  off += 8;
  report.measurement = Measurement::from(data.subspan(off, 48));
  off += 48;
  report.report_data = ReportData::from(data.subspan(off, 64));
  off += 64;
  report.chip_id = ChipId::from(data.subspan(off, 64));
  off += 64;
  report.reported_tcb = TcbVersion::decode(read_u64be(data, off));
  off += 8;
  report.vmpl = read_u32be(data, off);
  off += 4;
  const std::uint32_t sig_len = read_u32be(data, off);
  off += 4;
  if (off + sig_len > data.size()) {
    return Error::make("snp.report_truncated", "signature");
  }
  if (off + sig_len < data.size()) {
    // One report has one encoding: trailing bytes are refused, not ignored.
    return Error::make("snp.report_trailing_bytes");
  }
  report.signature = to_bytes(data.subspan(off, sig_len));
  return report;
}

}  // namespace revelio::sevsnp
