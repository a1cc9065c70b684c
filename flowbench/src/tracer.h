// flowbench/src/tracer.h
//
// The benchmark's own span recorder.  Spans are kept in memory around each
// public call the flow makes (name, start, end, parent, iteration id) and
// written out as a Chrome trace when the benchmark ends.  A disabled tracer
// records nothing and reads no clock, so untraced iterations pay only the
// benchmark's own per-iteration timing.

#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace flowbench {

struct SpanRecord {
    std::string name;
    double t0 = 0.0;   ///< seconds since the tracer epoch
    double t1 = 0.0;
    int parent = -1;   ///< index into Tracer::spans(), -1 for a root
    int iteration = 0;
};

class Tracer {
public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }
    void set_iteration(int it) { iteration_ = it; }

    /// Open a span nested under the innermost open one; -1 when disabled.
    int begin(const std::string& name) {
        if (!on_) return -1;
        SpanRecord s;
        s.name = name;
        s.t0 = now();
        s.parent = open_.empty() ? -1 : open_.back();
        s.iteration = iteration_;
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }
    void end(int id) {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].t1 = now();
        open_.pop_back();
    }

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /// Exclusive (self) seconds per span name within the tree rooted at
    /// span `root`: each span's duration minus the time its direct
    /// children cover.  The values sum to the root's duration.
    std::map<std::string, double> self_times(int root) const {
        std::map<std::string, double> out;
        std::vector<double> child(spans_.size(), 0.0);
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent >= 0)
                child[static_cast<std::size_t>(spans_[i].parent)] +=
                    spans_[i].t1 - spans_[i].t0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (in_tree(static_cast<int>(i), root))
                out[spans_[i].name] +=
                    spans_[i].t1 - spans_[i].t0 - child[i];
        return out;
    }

    /// Chrome trace_event JSON: one "X" event per span on a single lane,
    /// microsecond timestamps, parent and iteration ids in the args.
    void write_chrome_trace(std::ostream& os) const {
        os << "{\"traceEvents\":[\n";
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
              "\"args\":{\"name\":\"flow\"}}";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            os << ",\n{\"name\":\"" << s.name
               << "\",\"cat\":\"flow\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
               << ",\"ts\":" << s.t0 * 1e6
               << ",\"dur\":" << (s.t1 - s.t0) * 1e6
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"iteration\":" << s.iteration << "}}";
        }
        os << "\n]}\n";
    }

private:
    double now() const {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }
    bool in_tree(int i, int root) const {
        for (; i >= 0; i = spans_[static_cast<std::size_t>(i)].parent)
            if (i == root) return true;
        return false;
    }

    bool on_ = false;
    int iteration_ = 0;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
public:
    Span(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
    ~Span() { t_.end(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    int id() const { return id_; }

private:
    Tracer& t_;
    int id_;
};

} // namespace flowbench
