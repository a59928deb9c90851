#include "obs/flight_recorder.hpp"

#include "obs/json.hpp"

namespace revelio::obs {

const char* to_string(FlightEventType type) {
  switch (type) {
    case FlightEventType::kStageEnter:
      return "stage_enter";
    case FlightEventType::kStageExit:
      return "stage_exit";
    case FlightEventType::kPark:
      return "park";
    case FlightEventType::kWake:
      return "wake";
    case FlightEventType::kRetry:
      return "retry";
    case FlightEventType::kAdmission:
      return "admission";
    case FlightEventType::kCacheHit:
      return "cache_hit";
    case FlightEventType::kCacheMiss:
      return "cache_miss";
    case FlightEventType::kVerdict:
      return "verdict";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity_events) {
  ring_.resize(capacity_events == 0 ? 1 : capacity_events);
}

void FlightRecorder::record_at(std::uint64_t t_us, FlightEventType type,
                               std::uint16_t arg, std::uint32_t value) {
  Event& slot = ring_[count_ % ring_.size()];
  slot.t_us = t_us;
  slot.value = value;
  slot.arg = arg;
  slot.type = static_cast<std::uint8_t>(type);
  ++count_;
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  std::vector<Event> out;
  const std::size_t retained =
      count_ < ring_.size() ? static_cast<std::size_t>(count_) : ring_.size();
  out.reserve(retained);
  // Oldest retained event first: when wrapped, that is the current slot.
  const std::size_t start =
      count_ < ring_.size() ? 0 : static_cast<std::size_t>(count_ % ring_.size());
  for (std::size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string FlightRecorder::to_json(std::uint64_t session,
                                    const std::string& reason) const {
  std::string out = "{\"session\":" + std::to_string(session) +
                    ",\"reason\":\"" + json_escape(reason) +
                    "\",\"recorded\":" + std::to_string(count_) +
                    ",\"dropped\":" + std::to_string(dropped()) +
                    ",\"events\":[";
  bool first = true;
  for (const Event& e : events()) {
    if (!first) out += ",";
    first = false;
    out += "{\"t_us\":" + std::to_string(e.t_us) + ",\"type\":\"" +
           to_string(static_cast<FlightEventType>(e.type)) +
           "\",\"arg\":" + std::to_string(e.arg) +
           ",\"value\":" + std::to_string(e.value) + "}";
  }
  out += "]}";
  return out;
}

namespace {
thread_local SessionRecord* bound_record = nullptr;
}  // namespace

SessionRecord* session_record() { return bound_record; }

ScopedSessionRecord::ScopedSessionRecord(SessionRecord* r)
    : prev_(bound_record) {
  bound_record = r;
}

ScopedSessionRecord::~ScopedSessionRecord() { bound_record = prev_; }

void flight_record(FlightEventType type, std::uint16_t arg,
                   std::uint32_t value) {
  SessionRecord* r = bound_record;
  if (r != nullptr && r->ring != nullptr) {
    r->ring->record_at(r->now_us, type, arg, value);
  }
}

void note_wait_us(std::uint64_t us) {
  if (bound_record != nullptr) bound_record->waited_us += us;
}

}  // namespace revelio::obs
