// Names kept for the repository benchmark's fingerprint (perfbench/), which
// reports how a 2-worker DistributedRunner reaches its workers. Streaming
// work-stealing (docs/distributed.md) is the only protocol, so every
// function here resolves to kStream and reads no environment variable.
// The library, tools, tests, benches and examples do not include this
// header.
#pragma once

namespace hlp::flow {

enum class DispatchMode { kAuto, kStream };

inline const char* dispatch_mode_name(DispatchMode mode) {
  return mode == DispatchMode::kAuto ? "auto" : "stream";
}

inline DispatchMode effective_dispatch_mode(DispatchMode) {
  return DispatchMode::kStream;
}

inline DispatchMode resolve_dispatch_mode(DispatchMode, int /*workers*/) {
  return DispatchMode::kStream;
}

}  // namespace hlp::flow
