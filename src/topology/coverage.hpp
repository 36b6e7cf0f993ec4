#pragma once

// Per-operator radio coverage: each MNO owns a SectorGrid anchored at its
// country's centroid. MVNOs have no grid of their own — their customers use
// the host's sectors (OperatorRegistry::radio_network_of).

#include <optional>
#include <vector>

#include "cellnet/sector.hpp"
#include "topology/operator_registry.hpp"

namespace wtr::topology {

class CoverageMap {
 public:
  /// Build a grid for an MNO. The anchor should be the operator's country
  /// centroid (World does this). Replaces any existing grid.
  void build_grid(const Operator& op, cellnet::GeoPoint anchor, std::uint64_t seed);

  /// The operator's grid, or nullptr when it has none (an MVNO, or a world
  /// built without coverage).
  [[nodiscard]] const cellnet::SectorGrid* grid(OperatorId id) const noexcept {
    return id < grids_.size() && grids_[id] ? &*grids_[id] : nullptr;
  }

  [[nodiscard]] std::size_t total_sectors() const;

 private:
  std::vector<std::optional<cellnet::SectorGrid>> grids_;  // indexed by operator id
};

}  // namespace wtr::topology
