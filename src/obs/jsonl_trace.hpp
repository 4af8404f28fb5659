// Machine-readable trace sink: one JSON object per event, newline-delimited.
//
// Sits alongside RingTrace (in-memory ring); JSONL is the format
// trace-analysis tooling actually wants — each line is independently
// parseable, so truncated files and streamed consumption both work. Field
// set matches TraceEvent; listen events add the reception.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "radio/trace.hpp"

namespace emis::obs {

class JsonlTraceSink final : public TraceSink {
 public:
  /// The stream must outlive the sink. Nothing is written until the first
  /// event.
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}

  ~JsonlTraceSink() override;

  void OnEvent(const TraceEvent& event) override;

  std::uint64_t EventsWritten() const noexcept { return events_written_; }

  /// Flushes the underlying stream; also called by the destructor so files
  /// are complete without the caller remembering to flush.
  void Flush();

 private:
  std::ostream* out_;
  std::uint64_t events_written_ = 0;
};

}  // namespace emis::obs
