#include "radio/trace.hpp"

#include <sstream>

namespace emis {

std::string ToString(const TraceEvent& event) {
  std::ostringstream os;
  os << 'r' << event.round << " n" << event.node << ' ' << ToString(event.action);
  if (event.action == ActionKind::kTransmit) {
    os << '(' << event.payload << ')';
  } else if (event.action == ActionKind::kListen) {
    os << " -> " << ToString(event.reception.kind);
    if (event.reception.kind == ReceptionKind::kMessage) {
      os << '(' << event.reception.payload << ')';
    }
  }
  return os.str();
}

}  // namespace emis
