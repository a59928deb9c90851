#include "obs/audit_log.hpp"

#include <algorithm>
#include <cstring>

#include "common/hex.hpp"
#include "crypto/merkle.hpp"

namespace revelio::obs {

namespace {

constexpr char kMagic[8] = {'R', 'V', 'A', 'U', 'D', 'T', '0', '1'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4;  // magic, interval, rec size
constexpr std::uint8_t kFrameRecord = 0x01;
constexpr std::uint8_t kFrameCheckpoint = 0x02;
constexpr std::uint8_t kFrameTrailer = 0x03;
// checkpoint frame body: root(32) || u64be(total records so far)
constexpr std::size_t kCheckpointBody = 32 + 8;

crypto::Digest32 genesis_head() {
  static const char kSeed[] = "revelio-audit-v1";
  return crypto::sha256(ByteView(
      reinterpret_cast<const std::uint8_t*>(kSeed), sizeof(kSeed) - 1));
}

/// h' = SHA-256(h || frame_type || frame_body) — the one chaining rule
/// both append and verify use.
crypto::Digest32 chain(const crypto::Digest32& head, std::uint8_t frame_type,
                       ByteView body) {
  Bytes buf;
  buf.reserve(32 + 1 + body.size());
  append(buf, head.view());
  append_u8(buf, frame_type);
  append(buf, body);
  return crypto::sha256(buf);
}

std::string frame_detail(std::uint64_t frame, std::string detail) {
  return "frame " + std::to_string(frame) + ": " + std::move(detail);
}

/// One pass over a serialized stream, shared by verify(), verify_prefix()
/// and restore(). Stops at the first problem and records whether it was a
/// clean truncation (the bytes just end — what a crash produces) or
/// interior damage (valid-length bytes that fail the chain).
struct WalkState {
  AuditLog::VerifySummary summary;
  std::vector<crypto::Digest32> epoch;  // record hashes since last checkpoint
  crypto::Digest32 head;
  std::uint64_t interval = 0;
  std::uint64_t frames = 0;        // fully verified frames
  std::size_t frames_end = 0;      // offset one past the last verified frame
  bool complete = false;
  bool truncated = false;
  std::string failure_code;
  std::string failure_detail;
};

Result<WalkState> walk_stream(ByteView stream) {
  if (stream.size() < kHeaderSize) {
    return Error::make("audit.truncated", "stream shorter than header");
  }
  if (std::memcmp(stream.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error::make("audit.bad_magic", "not an audit stream");
  }
  WalkState st;
  st.interval = read_u32be(stream, 8);
  const std::uint64_t rec_size = read_u32be(stream, 12);
  if (st.interval == 0 || rec_size != AuditRecord::kWireSize) {
    return Error::make("audit.bad_header",
                       "interval=" + std::to_string(st.interval) +
                           " record_size=" + std::to_string(rec_size));
  }

  st.head = genesis_head();
  st.frames_end = kHeaderSize;
  std::size_t off = kHeaderSize;
  std::uint64_t frame = 0;

  auto stop_truncated = [&](std::string code, std::string detail) {
    st.truncated = true;
    st.failure_code = std::move(code);
    st.failure_detail = frame_detail(frame, std::move(detail));
    return st;
  };
  auto stop_tamper = [&](std::string detail) {
    st.truncated = false;
    st.failure_code = "audit.tamper";
    st.failure_detail = frame_detail(frame, std::move(detail));
    return st;
  };

  while (off < stream.size()) {
    const std::uint8_t type = stream[off];
    ++off;
    ++frame;
    if (type == kFrameRecord) {
      if (off + rec_size > stream.size()) {
        return stop_truncated("audit.record_truncated",
                              "record frame cut short by " +
                                  std::to_string(off + rec_size - stream.size()) +
                                  " bytes");
      }
      const ByteView wire = stream.subspan(off, rec_size);
      off += rec_size;
      st.head = chain(st.head, kFrameRecord, wire);
      st.epoch.push_back(crypto::sha256(wire));
      ++st.summary.records;
      if (wire[16] != 0) {
        ++st.summary.accepted;
      } else {
        ++st.summary.rejected;
      }
      if (st.epoch.size() > st.interval) {
        return stop_tamper("missing checkpoint after " +
                           std::to_string(st.interval) + " records");
      }
    } else if (type == kFrameCheckpoint) {
      if (off + kCheckpointBody > stream.size()) {
        return stop_truncated("audit.checkpoint_truncated",
                              "checkpoint frame cut short");
      }
      const ByteView body = stream.subspan(off, kCheckpointBody);
      off += kCheckpointBody;
      if (st.epoch.size() != st.interval) {
        return stop_tamper("checkpoint after " +
                           std::to_string(st.epoch.size()) + " records, " +
                           "expected " + std::to_string(st.interval));
      }
      const crypto::Digest32 expected =
          crypto::MerkleTree::from_leaves(st.epoch).root();
      if (crypto::Digest32::from(body.subspan(0, 32)) != expected) {
        return stop_tamper("checkpoint Merkle root mismatch");
      }
      if (read_u64be(body, 32) != st.summary.records) {
        return stop_tamper("checkpoint record count mismatch");
      }
      st.epoch.clear();
      st.head = chain(st.head, kFrameCheckpoint, body);
      ++st.summary.checkpoints;
    } else if (type == kFrameTrailer) {
      if (off + 32 > stream.size()) {
        return stop_truncated("audit.trailer_truncated", "trailer cut short");
      }
      if (crypto::Digest32::from(stream.subspan(off, 32)) != st.head) {
        return stop_tamper("chain head mismatch — history was modified");
      }
      off += 32;
      if (off != stream.size()) {
        return stop_tamper("trailing bytes after trailer");
      }
      st.complete = true;
      st.summary.head_hex = to_hex(st.head.view());
      return st;
    } else {
      return stop_tamper("unknown frame type " + std::to_string(type));
    }
    ++st.frames;
    st.frames_end = off;
  }
  st.truncated = true;
  st.failure_code = "audit.truncated";
  st.failure_detail = "stream ends without trailer";
  return st;
}

}  // namespace

Bytes AuditRecord::serialize() const {
  Bytes out;
  out.reserve(kWireSize);
  append_u64be(out, session);
  append_u64be(out, virt_us);
  append_u8(out, accepted ? 1 : 0);
  append_u8(out, checks);
  char step[kFailureStepSize] = {};
  std::memcpy(step, failure_step.data(),
              std::min(failure_step.size(), kFailureStepSize - 1));
  out.insert(out.end(), step, step + kFailureStepSize);
  append(out, measurement.view());
  append(out, vcek_chain.view());
  append_u64be(out, tcb);
  append(out, evidence_digest.view());
  return out;
}

Result<AuditRecord> AuditRecord::parse(ByteView wire) {
  if (wire.size() < kWireSize) {
    return Error::make("audit.record_truncated",
                       "record wire is " + std::to_string(wire.size()) +
                           " bytes, need " + std::to_string(kWireSize));
  }
  if (wire.size() > kWireSize) {
    return Error::make("audit.record_oversized",
                       "record wire is " + std::to_string(wire.size()) +
                           " bytes, expected " + std::to_string(kWireSize));
  }
  AuditRecord rec;
  rec.session = read_u64be(wire, 0);
  rec.virt_us = read_u64be(wire, 8);
  rec.accepted = wire[16] != 0;
  rec.checks = wire[17];
  const char* step = reinterpret_cast<const char*>(wire.data() + 18);
  rec.failure_step.assign(step, strnlen(step, kFailureStepSize));
  rec.measurement = crypto::Digest48::from(wire.subspan(18 + kFailureStepSize, 48));
  rec.vcek_chain = crypto::Digest32::from(wire.subspan(18 + kFailureStepSize + 48, 32));
  rec.tcb = read_u64be(wire, 18 + kFailureStepSize + 48 + 32);
  rec.evidence_digest =
      crypto::Digest32::from(wire.subspan(18 + kFailureStepSize + 48 + 32 + 8, 32));
  return rec;
}

AuditLog::AuditLog(std::size_t checkpoint_interval)
    : interval_(checkpoint_interval == 0 ? 1 : checkpoint_interval),
      head_(genesis_head()) {}

void AuditLog::emit_locked(std::uint8_t frame_type, ByteView body) {
  if (!sink_) return;
  if (auto st = sink_(frame_type, body); !st.ok()) ++sink_failures_;
}

void AuditLog::append(const AuditRecord& record) {
  const Bytes wire = record.serialize();
  std::lock_guard<std::mutex> lock(mu_);
  append_u8(frames_, kFrameRecord);
  revelio::append(frames_, wire);
  head_ = chain(head_, kFrameRecord, wire);
  epoch_leaves_.push_back(crypto::sha256(wire));
  ++records_;
  if (record.accepted) ++accepted_;
  emit_locked(kFrameRecord, wire);
  if (epoch_leaves_.size() >= interval_) append_checkpoint_locked();
}

void AuditLog::append_checkpoint_locked() {
  const crypto::Digest32 root =
      crypto::MerkleTree::from_leaves(epoch_leaves_).root();
  epoch_leaves_.clear();
  Bytes body;
  body.reserve(kCheckpointBody);
  revelio::append(body, root.view());
  append_u64be(body, records_);
  append_u8(frames_, kFrameCheckpoint);
  revelio::append(frames_, body);
  head_ = chain(head_, kFrameCheckpoint, body);
  ++checkpoints_;
  emit_locked(kFrameCheckpoint, body);
}

void AuditLog::set_sink(FrameSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

std::uint64_t AuditLog::sink_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sink_failures_;
}

std::uint64_t AuditLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::uint64_t AuditLog::checkpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

crypto::Digest32 AuditLog::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

Bytes AuditLog::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return assemble_stream(interval_, frames_, head_);
}

crypto::Digest32 AuditLog::chain_step(const crypto::Digest32& head,
                                      std::uint8_t frame_type, ByteView body) {
  return chain(head, frame_type, body);
}

Bytes AuditLog::assemble_stream(std::size_t checkpoint_interval,
                                ByteView frames, const crypto::Digest32& head) {
  Bytes out;
  out.reserve(kHeaderSize + frames.size() + 1 + 32);
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  append_u32be(out, static_cast<std::uint32_t>(checkpoint_interval));
  append_u32be(out, static_cast<std::uint32_t>(AuditRecord::kWireSize));
  revelio::append(out, frames);
  append_u8(out, kFrameTrailer);
  revelio::append(out, head.view());
  return out;
}

Result<AuditLog::VerifySummary> AuditLog::verify(ByteView stream) {
  auto walked = walk_stream(stream);
  if (!walked.ok()) return walked.error();
  if (walked->complete) return walked->summary;
  // Keep verify()'s historical contract: any mid-frame damage — even one
  // that looks like truncation — is a verification failure with code
  // audit.tamper; only a stream that stops cleanly between frames gets
  // audit.truncated. Callers who need the torn-tail distinction use
  // verify_prefix().
  if (walked->failure_code == "audit.truncated") {
    return Error::make("audit.truncated", walked->failure_detail);
  }
  return Error::make("audit.tamper", walked->failure_detail);
}

Result<AuditLog::PrefixSummary> AuditLog::verify_prefix(ByteView stream) {
  auto walked = walk_stream(stream);
  if (!walked.ok()) return walked.error();
  PrefixSummary out;
  out.summary = walked->summary;
  out.complete = walked->complete;
  out.truncated = walked->truncated;
  out.valid_frames = walked->frames;
  out.last_valid_record = walked->summary.records;
  if (!walked->complete) {
    out.failure_code = walked->failure_code;
    out.failure_detail = walked->failure_detail;
    // A truncated stream's summary covers only fully verified frames; a
    // record counted before the walk stopped on tampering stays counted —
    // the caller sees exactly how far trust extends either way.
    out.summary.head_hex.clear();
  }
  return out;
}

Status AuditLog::restore(ByteView stream) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_ != 0 || checkpoints_ != 0 || !frames_.empty()) {
    return Error::make("audit.restore_nonempty",
                       "restore() requires an empty log");
  }
  auto walked = walk_stream(stream);
  if (!walked.ok()) return walked.error();
  if (!walked->complete) {
    return Error::make(walked->failure_code, walked->failure_detail);
  }
  if (walked->interval != interval_) {
    return Error::make("audit.bad_header",
                       "stream checkpoint interval " +
                           std::to_string(walked->interval) +
                           " != log interval " + std::to_string(interval_));
  }
  head_ = walked->head;
  frames_.assign(stream.begin() + kHeaderSize,
                 stream.begin() + walked->frames_end);
  epoch_leaves_ = std::move(walked->epoch);
  records_ = walked->summary.records;
  checkpoints_ = walked->summary.checkpoints;
  accepted_ = walked->summary.accepted;
  return Status::success();
}

}  // namespace revelio::obs
