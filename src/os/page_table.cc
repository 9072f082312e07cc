#include "page_table.hh"

#include <algorithm>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "os/memory_map.hh"

namespace atlb
{

struct PageTable::Leaf
{
    std::array<std::uint64_t, fanout> ents{};

    /** Copy of this node: one 4KB block. */
    std::unique_ptr<Leaf> clone() const
    {
        return std::make_unique<Leaf>(*this);
    }
};

template <class Child>
struct PageTable::Interior
{
    /** 1GB leaves at the PDPT level, 2MB leaves at the PD level. */
    std::array<std::uint64_t, fanout> ents{};
    std::array<std::unique_ptr<Child>, fanout> kids{};

    /** Deep copy of this subtree. */
    std::unique_ptr<Interior> clone() const
    {
        auto copy = std::make_unique<Interior>();
        copy->ents = ents;
        for (unsigned i = 0; i < fanout; ++i) {
            if (kids[i])
                copy->kids[i] = kids[i]->clone();
        }
        return copy;
    }
};

namespace
{

/** Radix index of @p vpn at @p level (0 = PML4 ... 3 = PT). */
unsigned
levelIndex(Vpn vpn, unsigned level)
{
    return static_cast<unsigned>((vpn.raw() >> (9 * (3 - level))) &
                                 (PageTable::fanout - 1));
}

/** True iff @p e is a present 1GB or 2MB leaf entry. */
bool
hugeLeaf(std::uint64_t e)
{
    return pte::present(e) && pte::huge(e);
}

/**
 * The child of interior @p node on @p vpn's path at @p level, allocated
 * (and counted in @p node_count) when missing. Panics when the slot is
 * a huge leaf.
 */
template <template <class> class Node, class Child>
Child &
ensureChild(Node<Child> &node, Vpn vpn, unsigned level,
            std::uint64_t &node_count)
{
    const unsigned idx = levelIndex(vpn, level);
    ATLB_ASSERT(!hugeLeaf(node.ents[idx]),
                "descending through a huge leaf at vpn {}", vpn);
    auto &kid = node.kids[idx];
    if (!kid) {
        kid = std::make_unique<Child>();
        ++node_count;
    }
    return *kid;
}

} // namespace

PageTable::PageTable() : root_(std::make_unique<Pml4>()), node_count_(1)
{
    static_assert(sizeof(Leaf) == 4096,
                  "a PT-level leaf node is one 4KB block of PTEs");
}
PageTable::~PageTable() = default;
PageTable::PageTable(PageTable &&) noexcept = default;
PageTable &PageTable::operator=(PageTable &&) noexcept = default;

PageTable
PageTable::clone() const
{
    PageTable copy;
    copy.root_ = root_->clone();
    copy.mapped_4k_ = mapped_4k_;
    copy.mapped_2m_ = mapped_2m_;
    copy.mapped_1g_ = mapped_1g_;
    copy.node_count_ = node_count_;
    copy.swept_distance_ = swept_distance_;
    return copy;
}

PageTable::Pd &
PageTable::ensurePd(Vpn vpn)
{
    return ensureChild(ensureChild(*root_, vpn, 0, node_count_), vpn, 1,
                       node_count_);
}

const PageTable::Pd *
PageTable::findPd(Vpn vpn) const
{
    const Pdpt *pdpt = root_->kids[levelIndex(vpn, 0)].get();
    if (!pdpt)
        return nullptr;
    return pdpt->kids[levelIndex(vpn, 1)].get();
}

PageTable::Pd *
PageTable::findPd(Vpn vpn)
{
    return const_cast<Pd *>(std::as_const(*this).findPd(vpn));
}

std::uint64_t *
PageTable::findPte(Vpn vpn)
{
    Pd *pd = findPd(vpn);
    if (!pd)
        return nullptr;
    Leaf *pt = pd->kids[levelIndex(vpn, 2)].get();
    return pt ? &pt->ents[levelIndex(vpn, 3)] : nullptr;
}

void
PageTable::map4K(Vpn vpn, Ppn ppn, PageCount pages)
{
    std::uint64_t left = pages;
    while (left != 0) {
        Leaf &pt = ensureChild(ensurePd(vpn), vpn, 2, node_count_);
        const unsigned first = levelIndex(vpn, 3);
        const unsigned n = static_cast<unsigned>(
            std::min<std::uint64_t>(left, fanout - first));
        std::uint64_t *slot = &pt.ents[first];
        for (unsigned i = 0; i < n; ++i) {
            ATLB_ASSERT(!pte::present(slot[i]), "vpn {} already mapped",
                        vpn + i);
            // Preserve ignored bits: a neighbouring anchor may have
            // parked its high contiguity byte here before this page
            // was mapped.
            slot[i] = pte::make(ppn + i) | (slot[i] & pte::contigMask);
        }
        mapped_4k_ += n;
        vpn += n;
        ppn += n;
        left -= n;
    }
}

void
PageTable::remap4K(Vpn vpn, Ppn ppn)
{
    std::uint64_t *e = findPte(vpn);
    ATLB_ASSERT(e && pte::present(*e) && !pte::huge(*e),
                "remap of vpn {} which is not a 4KB mapping", vpn);
    *e = pte::make(ppn) | (*e & pte::contigMask);
}

void
PageTable::unmap4K(Vpn vpn)
{
    std::uint64_t *e = findPte(vpn);
    ATLB_ASSERT(e && pte::present(*e) && !pte::huge(*e),
                "unmap of vpn {} which is not a 4KB mapping", vpn);
    *e = 0;
    --mapped_4k_;
}

void
PageTable::map2M(Vpn vpn, Ppn ppn)
{
    ATLB_ASSERT(vpn.isAligned(hugePages) && ppn.isAligned(hugePages),
                "2MB mapping must be 512-page aligned (vpn {}, ppn {})",
                vpn, ppn);
    Pd &pd = ensurePd(vpn);
    const unsigned idx = levelIndex(vpn, 2);
    ATLB_ASSERT(!pd.kids[idx], "2MB leaf over existing PT at vpn {}", vpn);
    std::uint64_t &e = pd.ents[idx];
    ATLB_ASSERT(!pte::present(e), "vpn {} already mapped", vpn);
    e = pte::make(ppn, true);
    ++mapped_2m_;
}

void
PageTable::map1G(Vpn vpn, Ppn ppn)
{
    ATLB_ASSERT(vpn.isAligned(giantPages) && ppn.isAligned(giantPages),
                "1GB mapping must be 2^18-page aligned (vpn {}, ppn {})",
                vpn, ppn);
    Pdpt &pdpt = ensureChild(*root_, vpn, 0, node_count_);
    const unsigned idx = levelIndex(vpn, 1);
    ATLB_ASSERT(!pdpt.kids[idx], "1GB leaf over existing PD at vpn {}",
                vpn);
    std::uint64_t &e = pdpt.ents[idx];
    ATLB_ASSERT(!pte::present(e), "vpn {} already mapped", vpn);
    // A 1GB leaf's frame bits start at bit 30, so pte::make/pfn are
    // exact for naturally aligned frames.
    e = pte::make(ppn, true);
    ++mapped_1g_;
}

WalkResult
PageTable::walk(Vpn vpn) const
{
    WalkResult res;
    res.levels = 1;
    const Pdpt *pdpt = root_->kids[levelIndex(vpn, 0)].get();
    if (!pdpt)
        return res;
    res.levels = 2;
    const unsigned i1 = levelIndex(vpn, 1);
    if (hugeLeaf(pdpt->ents[i1])) {
        res.present = true;
        res.ppn = pte::pfn(pdpt->ents[i1]) + giantOffset(vpn);
        res.size = PageSize::Giant1G;
        return res;
    }
    const Pd *pd = pdpt->kids[i1].get();
    if (!pd)
        return res;
    res.levels = 3;
    const unsigned i2 = levelIndex(vpn, 2);
    if (hugeLeaf(pd->ents[i2])) {
        res.present = true;
        res.ppn = pte::hugePfn(pd->ents[i2]) + hugeOffset(vpn);
        res.size = PageSize::Huge2M;
        return res;
    }
    const Leaf *pt = pd->kids[i2].get();
    if (!pt)
        return res;
    res.levels = 4;
    const std::uint64_t e = pt->ents[levelIndex(vpn, 3)];
    if (pte::present(e)) {
        res.present = true;
        res.ppn = pte::pfn(e);
        res.size = PageSize::Base4K;
    }
    return res;
}

void
PageTable::prefetchWalk(Vpn vpn) const
{
    // A 1GB leaf has no PD child, so findPd stops there.
    const Pd *pd = findPd(vpn);
    if (!pd)
        return;
    const unsigned idx = levelIndex(vpn, 2);
    // A huge leaf's PTE is in the line just loaded; done.
    if (hugeLeaf(pd->ents[idx]))
        return;
    if (const Leaf *pt = pd->kids[idx].get())
        __builtin_prefetch(&pt->ents[levelIndex(vpn, 3)], 0, 2);
}

std::uint64_t *
PageTable::findAnchorSlot(Vpn avpn, bool &is_huge)
{
    Pd *pd = findPd(avpn);
    if (!pd)
        return nullptr;
    const unsigned idx = levelIndex(avpn, 2);
    if (hugeLeaf(pd->ents[idx])) {
        if (!avpn.isAligned(hugePages))
            return nullptr; // inside a huge page, no slot exists
        is_huge = true;
        return &pd->ents[idx];
    }
    Leaf *pt = pd->kids[idx].get();
    if (!pt)
        return nullptr;
    is_huge = false;
    return &pt->ents[levelIndex(avpn, 3)];
}

const std::uint64_t *
PageTable::findAnchorSlot(Vpn avpn, bool &is_huge) const
{
    return const_cast<PageTable *>(this)->findAnchorSlot(avpn, is_huge);
}

void
PageTable::setAnchorContiguity(Vpn avpn, std::uint64_t contig,
                               AnchorDist distance)
{
    ATLB_ASSERT(distance.valid() && distance.pages() <= maxContiguity,
                "bad anchor distance {}", distance);
    ATLB_ASSERT(avpn.isAligned(distance.pages()),
                "unaligned anchor vpn {}", avpn);
    ATLB_ASSERT(contig <= std::min(distance.pages(), maxContiguity),
                "contiguity {} exceeds distance {}", contig, distance);

    bool is_huge = false;
    std::uint64_t *e = findAnchorSlot(avpn, is_huge);
    if (contig == 0) {
        if (!e)
            return; // nothing to clear
        if (is_huge) {
            *e = pte::withHugeContigByte(*e, 0);
            *e = pte::withContigByte(*e, 0);
        } else {
            *e = pte::withContigByte(*e, 0);
            if (distance.pages() > 256)
                e[1] = pte::withContigByte(e[1], 0);
        }
        return;
    }
    ATLB_ASSERT(e, "anchor vpn {} has no slot for an anchor", avpn);
    ATLB_ASSERT(pte::present(*e), "anchor vpn {} is not mapped", avpn);
    // Store contig - 1 (paper footnote: value excludes the anchor page so
    // the field's full range is usable).
    const std::uint64_t encoded = contig - 1;
    if (is_huge) {
        // The single PD leaf holds all 16 bits: low byte below the 2MB
        // frame field, high byte in the ignored bits.
        *e = pte::withHugeContigByte(
            *e, static_cast<std::uint8_t>(encoded & 0xff));
        *e = pte::withContigByte(
            *e, static_cast<std::uint8_t>((encoded >> 8) & 0xff));
        return;
    }
    *e = pte::withContigByte(*e, static_cast<std::uint8_t>(encoded & 0xff));
    if (distance.pages() > 256) {
        // distance > 256 implies distance >= 512, so the anchor is the
        // first entry of its cache line; entry index avpn%512 == 0 and the
        // neighbour below is in the same node and the same cache line.
        e[1] = pte::withContigByte(
            e[1], static_cast<std::uint8_t>((encoded >> 8) & 0xff));
    }
}

std::uint64_t
PageTable::anchorContiguity(Vpn avpn, AnchorDist distance) const
{
    bool is_huge = false;
    const std::uint64_t *e = findAnchorSlot(avpn, is_huge);
    if (!e || !pte::present(*e))
        return 0;
    std::uint64_t encoded;
    if (is_huge) {
        encoded = pte::hugeContigByte(*e) |
                  (static_cast<std::uint64_t>(pte::contigByte(*e)) << 8);
        if (encoded == 0)
            return 0; // huge leaf never swept as an anchor
    } else {
        encoded = pte::contigByte(*e);
        if (distance.pages() > 256)
            encoded |=
                static_cast<std::uint64_t>(pte::contigByte(e[1])) << 8;
    }
    return encoded + 1;
}

std::uint64_t
PageTable::sweepAnchors(const MemoryMap &map, AnchorDist distance)
{
    ATLB_ASSERT(distance.valid() && distance.pages() <= maxContiguity,
                "bad anchor distance {}", distance);
    std::uint64_t touched = 0;

    // Clear the previous distance's anchors so stale contiguity bytes
    // cannot alias into the new encoding.
    if (!swept_distance_.none() && swept_distance_ != distance) {
        for (const Chunk &c : map.chunks()) {
            for (Vpn avpn = c.vpn.alignUp(swept_distance_.pages());
                 avpn < c.vpnEnd(); avpn += swept_distance_.pages()) {
                setAnchorContiguity(avpn, 0, swept_distance_);
                ++touched;
            }
        }
    }

    touched += sweepAnchorsRange(map, distance, Vpn{0}, invalidVpn);
    swept_distance_ = distance;
    return touched;
}

std::uint64_t
PageTable::sweepAnchorsRange(const MemoryMap &map, AnchorDist distance,
                             Vpn begin, Vpn end)
{
    ATLB_ASSERT(distance.valid() && distance.pages() <= maxContiguity,
                "bad anchor distance {}", distance);
    std::uint64_t touched = 0;
    for (const Chunk &c : map.chunks()) {
        const Vpn lo = std::max(c.vpn, begin);
        const Vpn hi = std::min(c.vpnEnd(), end);
        if (lo >= hi)
            continue;
        for (Vpn avpn = lo.alignUp(distance.pages()); avpn < hi;
             avpn += distance.pages()) {
            bool is_huge = false;
            const std::uint64_t *e = findAnchorSlot(avpn, is_huge);
            if (!e || !pte::present(*e))
                continue; // inside a huge page (distance < 512): no slot
            if (is_huge && distance.pages() < hugePages) {
                // An anchor covering less than a huge page would only
                // displace the strictly better 2MB translation.
                continue;
            }
            // Contiguity still runs to the chunk end: coverage beyond a
            // region boundary is physically valid, merely unused.
            const std::uint64_t run = c.vpnEnd() - avpn;
            const std::uint64_t contig =
                std::min({run, distance.pages(), maxContiguity});
            setAnchorContiguity(avpn, contig, distance);
            ++touched;
        }
    }
    return touched;
}

} // namespace atlb
