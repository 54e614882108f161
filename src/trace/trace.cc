#include "trace/trace.hh"

#include "base/logging.hh"

namespace osh::trace
{

const char*
categoryName(Category cat)
{
    switch (cat) {
      case Category::Vmm: return "vmm";
      case Category::Cloak: return "cloak";
      case Category::Transfer: return "transfer";
      case Category::Shim: return "shim";
      case Category::Syscall: return "syscall";
      case Category::Swap: return "swap";
      case Category::Vfs: return "vfs";
      case Category::Attack: return "attack";
      case Category::User: return "user";
      case Category::NumCategories: break;
    }
    return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity)
{
    osh_assert(capacity > 0, "trace ring needs capacity");
}

void
TraceBuffer::record(const TraceEvent& ev)
{
    if (ring_.empty())
        ring_.resize(capacity_);
    ring_[head_] = ev;
    head_ = (head_ + 1) % capacity_;
    total_++;
}

std::size_t
TraceBuffer::size() const
{
    return total_ < capacity_ ? static_cast<std::size_t>(total_)
                              : capacity_;
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::vector<TraceEvent> out;
    std::size_t n = size();
    out.reserve(n);
    // Oldest event: at index 0 until the ring wraps, then at head_.
    std::size_t start = wrapped() ? head_ : 0;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

void
TraceBuffer::clear()
{
    head_ = 0;
    total_ = 0;
}

Tracer::Tracer(const TraceConfig& config)
    : enabled_(config.enabled)
{
}

void
Tracer::complete(Category cat, const char* name, Cycles begin,
                 Cycles end, DomainId domain, Pid pid,
                 std::uint64_t arg0, std::uint64_t arg1)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.category = cat;
    ev.name = name;
    ev.domain = domain;
    ev.pid = pid;
    ev.begin = begin;
    ev.end = end >= begin ? end : begin;
    ev.arg0 = arg0;
    ev.arg1 = arg1;
    buffer_.record(ev);
    metrics_.histogram(static_cast<std::uint8_t>(cat), name)
        .record(ev.duration());
}

void
Tracer::instant(Category cat, const char* name, DomainId domain,
                Pid pid, std::uint64_t arg0, std::uint64_t arg1)
{
    if (!enabled_)
        return;
    Cycles at = now();
    TraceEvent ev;
    ev.category = cat;
    ev.name = name;
    ev.domain = domain;
    ev.pid = pid;
    ev.begin = at;
    ev.end = at;
    ev.arg0 = arg0;
    ev.arg1 = arg1;
    buffer_.record(ev);
    metrics_.counter(static_cast<std::uint8_t>(cat), name)++;
}

} // namespace osh::trace
