// catlift/geom/spatial_index.h
//
// Uniform-grid spatial index over rectangles.  The defect analysis needs
// "which shapes lie within distance d of this shape" queries for every shape
// on a layer; a bucket grid sized to the maximum defect diameter makes the
// whole neighbour enumeration O(shapes x local density).
//
// The grid is a flat array over the bounding box of the inserted rects
// (cell -> item list in one contiguous buffer), built on the first query
// after an insert.  A rect that spans several cells of the window is
// reported from the first of them only.  On the 256-stage inverter chain
// this grid extracts in 0.01-0.02 s where a hash map of per-cell rect
// copies took 0.08-0.10 s; reporting once takes a further 10-15% off LIFT.
// The number of cells is capped at max(4096, 8 x rects) by coarsening the
// pitch, so rects far apart never allocate a huge, empty array.

#pragma once

#include "geom/rect.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace catlift::geom {

/// Spatial index mapping rectangles (with opaque payload ids) to grid
/// buckets.  Query returns candidate ids whose rects touch the window;
/// the caller applies its own exact predicate.
class SpatialIndex {
public:
    /// `cell` is the grid pitch in nm; choose >= the largest query radius
    /// plus typical shape size for best performance.  Must be positive.
    /// The pitch is coarsened when a sparse layout would need far more
    /// cells than rects.
    explicit SpatialIndex(Coord cell);

    /// Insert a rectangle with caller-defined id (e.g. shape index).
    void insert(std::size_t id, const Rect& r);

    /// Ids of all rects whose bounding boxes touch `window`, ascending and
    /// without duplicates.  Rebuilds the grid first if rects were inserted
    /// since the last query, so it is not const.
    std::vector<std::size_t> query(const Rect& window);

    /// Ids of all rects within edge separation <= `dist` of `r` (candidate
    /// set by bounding box; exact separation up to the caller).
    std::vector<std::size_t> neighbours(const Rect& r, Coord dist) {
        return query(r.expanded(dist));
    }

    std::size_t size() const { return items_.size(); }

private:
    void build();

    /// Cell column/row of a coordinate, clamped to the grid.
    std::int64_t col(Coord x) const { return clamp_cell(x - origin_.x, nx_); }
    std::int64_t row(Coord y) const { return clamp_cell(y - origin_.y, ny_); }
    std::int64_t clamp_cell(Coord d, std::int64_t n) const {
        const std::int64_t c = d < 0 ? 0 : d / pitch_;
        return c < n ? c : n - 1;
    }

    Coord cell_;
    std::vector<std::pair<std::size_t, Rect>> items_;
    bool built_ = false;
    // The built grid: nx_ x ny_ cells of pitch_ from origin_; cell c holds
    // items cell_items_[cell_start_[c] .. cell_start_[c + 1]).
    Rect bounds_;
    Point origin_;
    Coord pitch_ = 0;
    std::int64_t nx_ = 0, ny_ = 0;
    std::vector<std::size_t> cell_start_;
    std::vector<std::uint32_t> cell_items_;
};

} // namespace catlift::geom
