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
};

template <class Child>
struct PageTable::Interior
{
    /** 1GB leaves at the PDPT level, 2MB leaves at the PD level. */
    std::array<std::uint64_t, fanout> ents{};
    std::array<std::unique_ptr<Child>, fanout> kids{};
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

/** Contiguity - 1 as one slot stores it: capped at @p cap pages. */
std::uint64_t
encodeRun(std::uint64_t run, std::uint64_t cap)
{
    return std::min(run, cap) - 1;
}

/**
 * Store 16-bit @p encoded in the 4KB entry @p e, which is leaf entry 0:
 * the low byte in @p e[0], the high byte parked in @p e[1].
 */
void
storeWide(std::uint64_t *e, std::uint64_t encoded)
{
    e[0] = pte::withContigByte(e[0], static_cast<std::uint8_t>(encoded));
    e[1] = pte::withContigByte(e[1],
                               static_cast<std::uint8_t>(encoded >> 8));
}

/** Store 16-bit @p encoded in the 2MB leaf entry @p e. */
std::uint64_t
withHugeContiguity(std::uint64_t e, std::uint64_t encoded)
{
    e = pte::withHugeContigByte(e, static_cast<std::uint8_t>(encoded));
    return pte::withContigByte(e, static_cast<std::uint8_t>(encoded >> 8));
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
PageTable::map4K(Vpn vpn, Ppn ppn, PageCount pages, PageCount run)
{
    ATLB_ASSERT(run >= pages, "run of {} pages shorter than the {} mapped",
                run, pages);
    std::uint64_t left = pages;
    std::uint64_t run_left = run;
    while (left != 0) {
        Leaf &pt = ensureChild(ensurePd(vpn), vpn, 2, node_count_);
        const unsigned first = levelIndex(vpn, 3);
        const unsigned n = static_cast<unsigned>(
            std::min<std::uint64_t>(left, fanout - first));
        std::uint64_t *slot = &pt.ents[first];
        for (unsigned i = 0; i < n; ++i) {
            ATLB_ASSERT(!pte::present(slot[i]), "vpn {} already mapped",
                        vpn + i);
            // An even entry stores its own one-byte contiguity; an odd
            // one keeps its ignored bits, since entry 1 may hold the
            // high byte of an entry 0 mapped before it.
            const std::uint64_t contig =
                (first + i) % 2 == 0
                    ? encodeRun(run_left - i, 256) << pte::contigShift
                    : slot[i] & pte::contigMask;
            slot[i] = pte::make(ppn + i) | contig;
        }
        if (first == 0)
            storeWide(slot, encodeRun(run_left, maxContiguity));
        mapped_4k_ += n;
        vpn += n;
        ppn += n;
        left -= n;
        run_left -= n;
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
PageTable::map2M(Vpn vpn, Ppn ppn, PageCount run)
{
    ATLB_ASSERT(vpn.isAligned(hugePages) && ppn.isAligned(hugePages),
                "2MB mapping must be 512-page aligned (vpn {}, ppn {})",
                vpn, ppn);
    Pd &pd = ensurePd(vpn);
    const unsigned idx = levelIndex(vpn, 2);
    ATLB_ASSERT(!pd.kids[idx], "2MB leaf over existing PT at vpn {}", vpn);
    std::uint64_t &e = pd.ents[idx];
    ATLB_ASSERT(!pte::present(e), "vpn {} already mapped", vpn);
    ATLB_ASSERT(run >= PageCount{hugePages},
                "2MB page at vpn {} in a run of {} pages", vpn, run);
    e = withHugeContiguity(pte::make(ppn, true),
                           encodeRun(run, maxContiguity));
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
    if (contig == 0 && !e)
        return; // nothing to clear
    ATLB_ASSERT(e, "anchor vpn {} has no slot for an anchor", avpn);
    ATLB_ASSERT(contig == 0 || pte::present(*e),
                "anchor vpn {} is not mapped", avpn);
    // Store contig - 1 (paper footnote: value excludes the anchor page so
    // the field's full range is usable); a cleared anchor stores 0.
    const std::uint64_t encoded = contig == 0 ? 0 : contig - 1;
    if (is_huge)
        *e = withHugeContiguity(*e, encoded);
    else if (avpn.isAligned(hugePages))
        storeWide(e, encoded);
    else // distance <= 256 here, so the value fits one byte
        *e = pte::withContigByte(*e, static_cast<std::uint8_t>(encoded));
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
        if (distance.pages() < hugePages)
            return 0;
        encoded = pte::hugeContigByte(*e) |
                  (static_cast<std::uint64_t>(pte::contigByte(*e)) << 8);
    } else {
        encoded = pte::contigByte(*e);
        // Leaf entry 0: the high byte is parked in entry 1, in the same
        // cache line.
        if (avpn.isAligned(hugePages))
            encoded |=
                static_cast<std::uint64_t>(pte::contigByte(e[1])) << 8;
    }
    return std::min(encoded + 1, distance.pages());
}

std::uint64_t
PageTable::sweepAnchors(const MemoryMap &map, AnchorDist distance,
                        AnchorDist from) const
{
    ATLB_ASSERT(distance.valid() && distance.pages() <= maxContiguity,
                "bad anchor distance {}", distance);
    const bool clears = !from.none() && from != distance;
    std::uint64_t touched = 0;
    for (const Chunk &c : map.chunks()) {
        // The clearing pass visits every aligned VPN of the old
        // distance, whether or not it holds a slot.
        if (clears) {
            touched += (c.vpnEnd().alignUp(from.pages()) -
                        c.vpn.alignUp(from.pages())) /
                       from.pages();
        }
        for (Vpn avpn = c.vpn.alignUp(distance.pages()); avpn < c.vpnEnd();
             avpn += distance.pages()) {
            if (anchorContiguity(avpn, distance) != 0)
                ++touched;
        }
    }
    return touched;
}

} // namespace atlb
