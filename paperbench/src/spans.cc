#include "spans.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <unordered_map>

namespace paperbench
{

int32_t
SpanRecorder::open(std::string name, int64_t start)
{
    int32_t parent = _open.empty() ? -1 : _open.back();
    _spans.push_back({std::move(name), start, start, parent});
    int32_t id = static_cast<int32_t>(_spans.size() - 1);
    _open.push_back(id);
    return id;
}

void
SpanRecorder::close(int32_t id, int64_t end)
{
    if (_open.empty() || _open.back() != id) {
        // Spans nest by scope; anything else is a benchmark bug.
        std::cerr << "paperbench: span " << id << " closed out of order\n";
        std::abort();
    }
    _open.pop_back();
    _spans[static_cast<size_t>(id)].end = end;
}

std::vector<SpanRecorder::LedgerRow>
SpanRecorder::ledger() const
{
    std::vector<int64_t> child_ns(_spans.size(), 0);
    for (const Span &s : _spans) {
        if (s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::vector<LedgerRow> rows;
    std::unordered_map<std::string, size_t> index;
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        auto [it, fresh] = index.emplace(s.name, rows.size());
        if (fresh)
            rows.push_back({s.name, 0, 0, 0});
        LedgerRow &row = rows[it->second];
        ++row.count;
        row.totalNs += s.end - s.start;
        row.selfNs += s.end - s.start - child_ns[i];
    }
    return rows;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    // Span names are benchmark-chosen identifiers ("cell:tasks/LFF",
    // "mem.replay", ...): no character needs JSON escaping.
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out << "{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
            << ",\"end_ns\":" << s.end << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, std::string name)
    : _recorder(recorder), _start(nowNs())
{
    if (_recorder)
        _id = _recorder->open(std::move(name), _start);
}

int64_t
ScopedSpan::stop()
{
    if (_duration >= 0)
        return _duration;
    int64_t end = nowNs();
    if (_recorder)
        _recorder->close(_id, end);
    _duration = end - _start;
    return _duration;
}

} // namespace paperbench
