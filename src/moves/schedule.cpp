#include "moves/schedule.hpp"

#include <sstream>

namespace qrm {

void Schedule::append(const Schedule& other) {
  if (&other == this) {
    // insert() from a vector's own range is undefined (libstdc++ copies
    // from the elements it has just moved into the new buffer).
    const std::vector<ParallelMove> copy = moves_;
    moves_.insert(moves_.end(), copy.begin(), copy.end());
    return;
  }
  moves_.insert(moves_.end(), other.moves_.begin(), other.moves_.end());
}

std::vector<MoveRecord> Schedule::records() const {
  std::vector<MoveRecord> out;
  std::size_t total = 0;
  for (const auto& m : moves_) total += m.sites.size();
  out.reserve(total);
  for (const auto& m : moves_)
    for (const Coord& site : m.sites) out.push_back({site, m.dir, m.steps});
  return out;
}

ScheduleStats Schedule::stats() const noexcept {
  ScheduleStats s;
  s.parallel_moves = moves_.size();
  for (const auto& m : moves_) {
    s.atom_moves += m.sites.size();
    s.total_steps += static_cast<std::int64_t>(m.sites.size()) * m.steps;
    if (m.steps > s.max_steps) s.max_steps = m.steps;
    if (m.sites.size() > s.max_parallelism) s.max_parallelism = m.sites.size();
  }
  s.mean_parallelism = s.parallel_moves == 0
                           ? 0.0
                           : static_cast<double>(s.atom_moves) /
                                 static_cast<double>(s.parallel_moves);
  return s;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  for (const auto& m : moves_) {
    os << to_cstring(m.dir) << " x" << m.steps << " {";
    for (std::size_t i = 0; i < m.sites.size(); ++i) {
      if (i != 0) os << ',';
      os << qrm::to_string(m.sites[i]);
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace qrm
