#pragma once
/// \file direction.hpp
/// Cardinal move directions on the lattice. Row 0 is the top row, so North
/// decreases the row index and West decreases the column index.

#include <cstdint>
#include <string>

#include "lattice/coord.hpp"

namespace qrm {

enum class Direction : std::uint8_t { North, South, West, East };

/// Unit displacement of one step in `dir`.
[[nodiscard]] constexpr Coord direction_delta(Direction dir) noexcept {
  switch (dir) {
    case Direction::North: return {-1, 0};
    case Direction::South: return {+1, 0};
    case Direction::West: return {0, -1};
    case Direction::East: return {0, +1};
  }
  return {0, 0};
}

/// True for West/East (moves along a row).
[[nodiscard]] constexpr bool is_horizontal(Direction dir) noexcept {
  return dir == Direction::West || dir == Direction::East;
}

[[nodiscard]] constexpr const char* to_cstring(Direction dir) noexcept {
  switch (dir) {
    case Direction::North: return "N";
    case Direction::South: return "S";
    case Direction::West: return "W";
    case Direction::East: return "E";
  }
  return "?";
}

[[nodiscard]] inline std::string to_string(Direction dir) { return to_cstring(dir); }

/// Coordinate after `steps` unit moves in `dir`.
[[nodiscard]] constexpr Coord moved(Coord c, Direction dir, std::int32_t steps) noexcept {
  const Coord d = direction_delta(dir);
  return {c.row + d.row * steps, c.col + d.col * steps};
}

}  // namespace qrm
