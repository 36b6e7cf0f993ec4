#include "topology/coverage.hpp"

#include <cassert>

namespace wtr::topology {

namespace {
// Every MNO's grid: 24 × 24 sectors 2.5 km apart. A technology the operator
// deploys covers this share of its sectors (NB-IoT only where deployed).
constexpr std::uint32_t kGridCols = 24;
constexpr std::uint32_t kGridRows = 24;
constexpr double kGridSpacingM = 2'500.0;
constexpr double kShare4g = 0.55;
constexpr double kShare3g = 0.85;
constexpr double kShare2g = 0.97;
constexpr double kShareNbIot = 0.85;
}  // namespace

void CoverageMap::build_grid(const Operator& op, cellnet::GeoPoint anchor,
                             std::uint64_t seed) {
  assert(op.kind == OperatorKind::kMno);
  cellnet::SectorGrid::Config config;
  config.operator_plmn = op.plmn;
  config.anchor = anchor;
  config.cols = kGridCols;
  config.rows = kGridRows;
  config.spacing_m = kGridSpacingM;
  config.seed = seed;
  config.share_4g = op.deployed_rats.has(cellnet::Rat::kFourG) ? kShare4g : 0.0;
  config.share_3g = op.deployed_rats.has(cellnet::Rat::kThreeG) ? kShare3g : 0.0;
  config.share_2g = op.deployed_rats.has(cellnet::Rat::kTwoG) ? kShare2g : 0.0;
  config.share_nbiot = op.deployed_rats.has(cellnet::Rat::kNbIot) ? kShareNbIot : 0.0;
  if (op.id >= grids_.size()) grids_.resize(std::size_t{op.id} + 1);
  grids_[op.id].emplace(config);
}

std::size_t CoverageMap::total_sectors() const {
  std::size_t total = 0;
  for (const auto& grid : grids_) total += grid ? grid->size() : 0;
  return total;
}

}  // namespace wtr::topology
