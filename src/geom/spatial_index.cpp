#include "geom/spatial_index.h"

#include <algorithm>
#include <limits>

namespace catlift::geom {

namespace {

/// Cell budget: a layout much sparser than the requested pitch gets a
/// coarser grid instead of an array of empty cells.
std::int64_t max_cells(std::size_t items) {
    return std::max<std::int64_t>(4096, 8 * static_cast<std::int64_t>(items));
}

} // namespace

SpatialIndex::SpatialIndex(Coord cell) : cell_(cell) {
    require(cell > 0, "SpatialIndex: cell pitch must be positive");
}

void SpatialIndex::insert(std::size_t id, const Rect& r) {
    require(items_.size() < std::numeric_limits<std::uint32_t>::max(),
            "SpatialIndex: too many rects");
    items_.emplace_back(id, r);
    built_ = false;
}

void SpatialIndex::build() {
    built_ = true;
    cell_start_.clear();
    cell_items_.clear();
    if (items_.empty()) return;
    bounds_ = items_.front().second;
    for (const auto& it : items_) bounds_ = bounds_.united(it.second);
    origin_ = bounds_.lo;
    pitch_ = cell_;
    for (;;) {
        nx_ = bounds_.width() / pitch_ + 1;
        ny_ = bounds_.height() / pitch_ + 1;
        const std::int64_t budget = max_cells(items_.size());
        if (nx_ <= budget && ny_ <= budget && nx_ * ny_ <= budget) break;
        pitch_ *= 2;
    }

    // Counting sort of (cell, item) pairs into one buffer.
    cell_start_.assign(static_cast<std::size_t>(nx_ * ny_) + 1, 0);
    auto for_cells = [&](const Rect& r, auto&& fn) {
        const std::int64_t x0 = col(r.lo.x), x1 = col(r.hi.x);
        const std::int64_t y0 = row(r.lo.y), y1 = row(r.hi.y);
        for (std::int64_t cy = y0; cy <= y1; ++cy)
            for (std::int64_t cx = x0; cx <= x1; ++cx)
                fn(static_cast<std::size_t>(cy * nx_ + cx));
    };
    for (const auto& it : items_)
        for_cells(it.second, [&](std::size_t c) { ++cell_start_[c + 1]; });
    for (std::size_t c = 1; c < cell_start_.size(); ++c)
        cell_start_[c] += cell_start_[c - 1];
    cell_items_.resize(cell_start_.back());
    std::vector<std::size_t> fill(cell_start_.begin(), cell_start_.end() - 1);
    for (std::size_t k = 0; k < items_.size(); ++k)
        for_cells(items_[k].second, [&](std::size_t c) {
            cell_items_[fill[c]++] = static_cast<std::uint32_t>(k);
        });
}

std::vector<std::size_t> SpatialIndex::query(const Rect& window) {
    if (!built_) build();
    std::vector<std::size_t> out;
    if (items_.empty() || !window.touches(bounds_)) return out;
    const std::int64_t wx0 = col(window.lo.x), wx1 = col(window.hi.x);
    const std::int64_t wy0 = row(window.lo.y), wy1 = row(window.hi.y);
    for (std::int64_t cy = wy0; cy <= wy1; ++cy) {
        for (std::int64_t cx = wx0; cx <= wx1; ++cx) {
            const std::size_t c = static_cast<std::size_t>(cy * nx_ + cx);
            for (std::size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
                const auto& [id, r] = items_[cell_items_[k]];
                if (!r.touches(window)) continue;
                // Report from the first cell shared by rect and window only.
                if (std::max(col(r.lo.x), wx0) != cx ||
                    std::max(row(r.lo.y), wy0) != cy)
                    continue;
                out.push_back(id);
            }
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace catlift::geom
