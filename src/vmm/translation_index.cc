#include "vmm/translation_index.hh"

#include "base/logging.hh"

namespace osh::vmm
{

TranslationIndex::TranslationIndex(std::size_t slots)
{
    osh_assert(slots < none / 8, "translation index too large");
    slots_.resize(slots);
    // A load factor of at most 1/4 keeps probe sequences short.
    std::size_t cells = 8;
    while (cells < 4 * slots)
        cells *= 2;
    resetHeads(cells);
    clear();
}

std::uint64_t
TranslationIndex::keyOf(Chain c, std::uint32_t slot) const
{
    const Slot& s = slots_[slot];
    return c == Va      ? s.vaPage
           : c == Frame ? pageBase(s.entry.mpa)
                        : s.ctx.asid;
}

std::uint64_t
TranslationIndex::hashOf(Chain c, Asid asid, std::uint64_t key)
{
    std::uint64_t h = c == AddrSpace ? key : key >> pageShift;
    if (c == Va)
        h ^= std::uint64_t{asid} << 40;
    return h * 0x9e3779b97f4a7c15ull;
}

std::uint32_t
TranslationIndex::home(std::uint64_t hash) const
{
    return static_cast<std::uint32_t>(hash >> 32) & mask_;
}

std::uint32_t
TranslationIndex::probe(Chain c, Asid asid, std::uint64_t key) const
{
    const std::vector<std::uint32_t>& t = heads_[c];
    std::uint32_t i = home(hashOf(c, asid, key));
    for (std::uint32_t s; (s = t[i]) != none; i = (i + 1) & mask_) {
        if (keyOf(c, s) == key && (c != Va || slots_[s].ctx.asid == asid))
            break;
    }
    return i;
}

std::uint32_t
TranslationIndex::head(Chain c, Asid asid, std::uint64_t key) const
{
    key = c == AddrSpace ? asid : pageBase(key);
    return heads_[c][probe(c, asid, key)];
}

void
TranslationIndex::pushChain(Chain c, std::uint32_t slot)
{
    std::uint32_t& cell =
        heads_[c][probe(c, slots_[slot].ctx.asid, keyOf(c, slot))];
    slots_[slot].links[c] = Link{none, cell};
    if (cell != none)
        slots_[cell].links[c].prev = slot;
    cell = slot;
}

void
TranslationIndex::unlinkChain(Chain c, std::uint32_t slot)
{
    Link l = slots_[slot].links[c];
    if (l.next != none)
        slots_[l.next].links[c].prev = l.prev;
    if (l.prev != none) {
        slots_[l.prev].links[c].next = l.next;
        return;
    }
    // The chain's head: its cell moves to the next entry, or empties.
    std::vector<std::uint32_t>& t = heads_[c];
    std::uint32_t hole = probe(c, slots_[slot].ctx.asid, keyOf(c, slot));
    if (l.next != none) {
        t[hole] = l.next;
        return;
    }
    // Later cells of the probe run shift back into the hole unless
    // that would move one before its home cell.
    for (std::uint32_t j = (hole + 1) & mask_; t[j] != none;
         j = (j + 1) & mask_) {
        std::uint32_t h = home(hashOf(c, slots_[t[j]].ctx.asid,
                                      keyOf(c, t[j])));
        if (((j - h) & mask_) >= ((j - hole) & mask_)) {
            t[hole] = t[j];
            hole = j;
        }
    }
    t[hole] = none;
}

void
TranslationIndex::resetHeads(std::size_t cells)
{
    for (std::vector<std::uint32_t>& t : heads_)
        t.assign(cells, none);
    mask_ = static_cast<std::uint32_t>(cells - 1);
}

void
TranslationIndex::growHeads()
{
    std::vector<std::uint32_t> old[chainCount];
    for (int c = 0; c < chainCount; ++c)
        old[c] = std::move(heads_[c]);
    resetHeads(2 * old[0].size());
    for (int i = 0; i < chainCount; ++i) {
        auto c = static_cast<Chain>(i);
        // Heads have distinct keys, so each probe ends at an empty cell.
        for (std::uint32_t s : old[c]) {
            if (s != none)
                heads_[c][probe(c, slots_[s].ctx.asid, keyOf(c, s))] = s;
        }
    }
}

std::uint32_t
TranslationIndex::find(const Context& ctx, GuestVA va_page) const
{
    std::uint32_t s = heads_[Va][probe(Va, ctx.asid, va_page)];
    while (s != none && !(slots_[s].ctx == ctx))
        s = slots_[s].links[Va].next;
    return s;
}

std::uint32_t
TranslationIndex::insert(const Context& ctx, GuestVA va_page,
                         const ShadowEntry& entry)
{
    std::uint32_t s = freeHead_;
    if (s != none) {
        freeHead_ = slots_[s].links[Va].next;
    } else {
        osh_assert(slots_.size() < none / 8, "translation index full");
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        if (4 * slots_.size() > heads_[0].size())
            growHeads();
    }
    Slot& slot = slots_[s];
    slot.ctx = ctx;
    slot.vaPage = va_page;
    slot.entry = entry;
    for (int c = 0; c < chainCount; ++c)
        pushChain(static_cast<Chain>(c), s);
    ++size_;
    return s;
}

void
TranslationIndex::update(std::uint32_t slot, const ShadowEntry& entry)
{
    bool same_frame =
        pageBase(slots_[slot].entry.mpa) == pageBase(entry.mpa);
    if (!same_frame)
        unlinkChain(Frame, slot);
    slots_[slot].entry = entry;
    if (!same_frame)
        pushChain(Frame, slot);
}

void
TranslationIndex::remove(std::uint32_t slot)
{
    for (int c = 0; c < chainCount; ++c)
        unlinkChain(static_cast<Chain>(c), slot);
    slots_[slot].links[Va].next = freeHead_;
    freeHead_ = slot;
    --size_;
}

void
TranslationIndex::clear()
{
    resetHeads(heads_[0].size());
    freeHead_ = none;
    for (auto i = static_cast<std::uint32_t>(slots_.size()); i-- > 0;) {
        slots_[i].links[Va].next = freeHead_;
        freeHead_ = i;
    }
    size_ = 0;
}

} // namespace osh::vmm
