/**
 * @file
 * x86-64-style 4-level radix page table with anchor entries.
 *
 * The table stores 4KB leaf PTEs at the PT level and 2MB leaf entries
 * (PS bit) at the PD level, mirroring x86-64. Anchor support follows the
 * paper's Figure 4: the entry whose VPN is aligned to the process's
 * anchor distance carries a contiguity count in spare bits.
 *
 * The count is stored once, when the page is mapped, and does not
 * depend on the distance (DESIGN.md section 7.5). Every slot that can
 * be an anchor holds its run: the pages contiguous from it to the end
 * of its mapping chunk, capped by what its bits can hold, minus one.
 *
 *  - An even 4KB entry holds min(run, 256) - 1 in its ignored bits
 *    [52, 60). Only distances <= 256 put an anchor there, and those
 *    never need more.
 *  - Leaf entry 0 (a 512-aligned VPN) holds min(run, 2^16) - 1: the low
 *    byte in its own bits [52, 60), the high byte in the same bits of
 *    entry 1, the next entry of the same 64B cache line (paper Section
 *    3.1). Entry 1 is odd, so it is never an anchor itself; reading it
 *    costs no extra memory access.
 *  - A 2MB leaf holds min(run, 2^16) - 1 in one PD entry: the low byte
 *    in bits [13, 21), below the 2MB frame field, and the high byte in
 *    bits [52, 60). This is the natural extension of the paper's
 *    scheme to THP-mapped regions, and lets one anchor cover runs
 *    spanning many 2MB pages.
 *
 * A read at distance d returns min(stored, d): contiguity beyond the
 * distance is useless for translation, because any VPN farther than d
 * from the anchor has a closer anchor of its own. That is exactly what
 * the paper's OS writes when it sweeps the table for d, so a table
 * built once serves every distance, is never written after its build,
 * and is shared by every cell and thread that reads it.
 *
 * Node layout (DESIGN.md section 7.7): the node type is fixed by level.
 * A PT-level leaf node is exactly 512 PTEs, one 4KB block, and nearly
 * every node of a table is one; the PML4, PDPT and PD levels are
 * interior nodes that hold 512 entries (1GB leaves at the PDPT level,
 * 2MB leaves at the PD level) plus 512 owning child pointers, the PD
 * level's children being leaf nodes. A walk therefore makes one load
 * per level, exactly as a uniform node type would.
 */

#ifndef ANCHORTLB_OS_PAGE_TABLE_HH
#define ANCHORTLB_OS_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace atlb
{

class MemoryMap;

/** 64-bit PTE bit-field helpers (subset of x86-64 layout). */
namespace pte
{

constexpr std::uint64_t presentBit = 1ULL << 0;
constexpr std::uint64_t writeBit = 1ULL << 1;
/** Page-size bit: set on a PD entry that is a 2MB leaf. */
constexpr std::uint64_t psBit = 1ULL << 7;
/** PFN field occupies bits [12, 52). */
constexpr std::uint64_t pfnMask = ((1ULL << 52) - 1) & ~(pageBytes - 1);
/** Ignored bits [52, 60) hold one byte of anchor contiguity. */
constexpr unsigned contigShift = 52;
constexpr std::uint64_t contigMask = 0xffULL << contigShift;

constexpr bool present(std::uint64_t e) { return e & presentBit; }
constexpr bool huge(std::uint64_t e) { return e & psBit; }

/** PFN of a 4KB leaf. */
constexpr Ppn pfn(std::uint64_t e)
{
    // Raw PTE-word bit layout. lint-allow: page-shift
    return Ppn{(e & pfnMask) >> pageShift};
}

constexpr std::uint64_t
make(Ppn ppn, bool is_huge = false)
{
    // Raw PTE-word bit layout. lint-allow: page-shift
    return (ppn.raw() << pageShift) | presentBit | writeBit |
           (is_huge ? psBit : 0);
}

constexpr std::uint8_t contigByte(std::uint64_t e)
{
    return static_cast<std::uint8_t>((e & contigMask) >> contigShift);
}

constexpr std::uint64_t
withContigByte(std::uint64_t e, std::uint8_t b)
{
    return (e & ~contigMask) |
           (static_cast<std::uint64_t>(b) << contigShift);
}

/**
 * 2MB leaf entries keep their low contiguity byte in bits [13, 21),
 * which sit below the 2MB frame field and above the PAT bit.
 */
constexpr unsigned hugeContigShift = 13;
constexpr std::uint64_t hugeContigMask = 0xffULL << hugeContigShift;

constexpr std::uint8_t hugeContigByte(std::uint64_t e)
{
    return static_cast<std::uint8_t>((e & hugeContigMask) >>
                                     hugeContigShift);
}

constexpr std::uint64_t
withHugeContigByte(std::uint64_t e, std::uint8_t b)
{
    return (e & ~hugeContigMask) |
           (static_cast<std::uint64_t>(b) << hugeContigShift);
}

/** PFN of a 2MB leaf (its frame bits start above the contiguity byte). */
constexpr Ppn
hugePfn(std::uint64_t e)
{
    // Raw PTE-word bit layout. lint-allow: page-shift
    return Ppn{(e & pfnMask & ~hugeContigMask) >> pageShift};
}

} // namespace pte

/** Result of walking the page table for one VPN. */
struct WalkResult
{
    bool present = false;
    Ppn ppn = invalidPpn;      //!< PFN of the *4KB page* containing the VPN
    PageSize size = PageSize::Base4K;
    /** Number of page-table levels touched (for cost accounting). */
    unsigned levels = 0;
};

/**
 * Four-level radix page table for one process.
 *
 * Leaf (PT-level) nodes are 4KB blocks of PTEs; interior nodes carry
 * their entries plus the child pointers (see the file comment). The
 * run form of map4K fills up to 512 PTEs of one leaf per descent, which
 * is how table_builder lays out a mapping chunk, and writes each slot's
 * anchor contiguity in the same store.
 *
 * Immutable after its build on every simulation path: the anchor reads
 * of every distance share the one table (see the file comment). Not
 * thread-safe to mutate; concurrent const readers are safe.
 */
class PageTable
{
  public:
    /** Entries per node (512 for x86-64). */
    static constexpr unsigned fanout = 512;
    /** Maximum anchor contiguity representable (16-bit field). */
    static constexpr std::uint64_t maxContiguity = 1ULL << 16;

    PageTable();
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;
    PageTable(PageTable &&) noexcept;
    PageTable &operator=(PageTable &&) noexcept;

    /** Map @p pages 4KB pages as a run of exactly that length. */
    void map4K(Vpn vpn, Ppn ppn, PageCount pages = PageCount{1})
    {
        map4K(vpn, ppn, pages, pages);
    }

    /**
     * Map @p pages 4KB pages: vpn + i -> ppn + i for i < @p pages. No
     * page of the run may already be mapped (panics otherwise). @p run
     * (>= @p pages) is how many pages are contiguous from @p vpn, up to
     * the end of its mapping chunk; each slot stores its share of it as
     * anchor contiguity (file comment). Each leaf node is reached once
     * and its slice of the run filled in one loop. Odd entries keep the
     * ignored bits they already held: entry 1 may hold the high byte of
     * an entry 0 mapped before it.
     */
    void map4K(Vpn vpn, Ppn ppn, PageCount pages, PageCount run);

    /**
     * Map one 2MB page; @p vpn and @p ppn must be 512-page aligned and
     * the region must not intersect existing mappings. @p run (>= 512)
     * is how many pages are contiguous from @p vpn, stored as the
     * leaf's anchor contiguity.
     */
    void map2M(Vpn vpn, Ppn ppn, PageCount run = PageCount{hugePages});

    /**
     * Map one 1GB page at the PDPT level; @p vpn and @p ppn must be
     * 2^18-page aligned.
     */
    void map1G(Vpn vpn, Ppn ppn);

    /**
     * Change the frame of an existing 4KB mapping (page migration).
     * Anchor contiguity bytes stored in the entry are preserved; the
     * OS is responsible for updating the affected anchors via
     * setAnchorContiguity and shooting down stale TLB entries.
     */
    void remap4K(Vpn vpn, Ppn ppn);

    /** Remove a 4KB mapping; the PTE's ignored bits are cleared too. */
    void unmap4K(Vpn vpn);

    /** Translate @p vpn. */
    WalkResult walk(Vpn vpn) const;

    /**
     * Prefetch hint for a walk of @p vpn a batch kernel expects to
     * issue shortly (mmu/mmu.hh, prefetchTranslate). Semantics-free.
     *
     * The interior levels are a handful of nodes that stay cache-hot
     * under any footprint (one PML4, and one PDPT/PD node per 512GB /
     * 1GB of address space), so chasing them here costs a few hot
     * loads — but they yield the *address* of the leaf PTE, which
     * lives in one line of a leaf-node population proportional to the
     * mapped footprint. That line is the walk's cache miss, and the
     * one this prefetches.
     */
    void prefetchWalk(Vpn vpn) const;

    /**
     * Overwrite the contiguity stored at the anchor slot of @p avpn,
     * the way an OS updates an anchor after a page migrates.
     * @param avpn      anchor VPN (aligned to @p distance)
     * @param contig    pages contiguous from the anchor, in
     *                  [1, min(distance, 2^16)]; 0 clears the anchor,
     *                  which then covers only its own page.
     * @param distance  the anchor distance the value is meant for.
     *
     * The anchor lives in the 4KB PTE for @p avpn, or — when @p avpn is
     * the 2MB-aligned start of a huge mapping — in the PD leaf entry.
     * An anchor VPN that falls strictly inside a huge page (only
     * possible for distances < 512) cannot hold an anchor; such calls
     * are rejected for non-zero @p contig. A read at any distance
     * d >= @p contig then returns @p contig.
     */
    void setAnchorContiguity(Vpn avpn, std::uint64_t contig,
                             AnchorDist distance);

    /**
     * The anchor contiguity at @p avpn for @p distance: min(stored,
     * distance). 0 when no present slot holds @p avpn (unmapped, or
     * strictly inside a huge page), and 0 for a 2MB slot when
     * @p distance < 512: such an anchor would only displace the
     * strictly better 2MB translation. Leaf entry 0 always reads both
     * bytes, from the one cache line.
     */
    std::uint64_t anchorContiguity(Vpn avpn, AnchorDist distance) const;

    /**
     * The cost, in page-table entries, of the paper's distance change
     * (Section 3.3) from @p from (none() for a table never swept) to
     * @p distance: a clearing pass over every @p from-aligned VPN of
     * every chunk, then every anchor slot that holds contiguity at
     * @p distance. Counts only; the contiguity this table stores is
     * already correct for every distance.
     */
    std::uint64_t sweepAnchors(const MemoryMap &map, AnchorDist distance,
                               AnchorDist from = AnchorDist{}) const;

    /** Count of present 4KB leaf entries. */
    std::uint64_t mapped4K() const { return mapped_4k_; }

    /** Count of 2MB leaf entries. */
    std::uint64_t mapped2M() const { return mapped_2m_; }

    /** Count of 1GB leaf entries. */
    std::uint64_t mapped1G() const { return mapped_1g_; }

    /** Total interior + leaf nodes allocated (memory footprint proxy). */
    std::uint64_t nodeCount() const { return node_count_; }

  private:
    /** A PT-level node: 512 PTEs, one 4KB block. */
    struct Leaf;
    /** A PML4/PDPT/PD node: 512 entries plus 512 owned @p Child nodes. */
    template <class Child> struct Interior;
    using Pd = Interior<Leaf>;
    using Pdpt = Interior<Pd>;
    using Pml4 = Interior<Pdpt>;

    std::unique_ptr<Pml4> root_;
    std::uint64_t mapped_4k_ = 0;
    std::uint64_t mapped_2m_ = 0;
    std::uint64_t mapped_1g_ = 0;
    std::uint64_t node_count_ = 0;

    /** The PD node covering @p vpn, allocating the path to it. */
    Pd &ensurePd(Vpn vpn);

    /** The PD node covering @p vpn, or nullptr if none exists. */
    const Pd *findPd(Vpn vpn) const;
    Pd *findPd(Vpn vpn);

    /** The 4KB PTE slot of @p vpn, or nullptr if no leaf node holds it. */
    std::uint64_t *findPte(Vpn vpn);

    /**
     * Locate the leaf entry that can hold an anchor for @p avpn: the PD
     * leaf when @p avpn starts a huge mapping, else the 4KB PTE slot.
     * Returns nullptr when @p avpn lies strictly inside a huge page or
     * no PT node exists.
     */
    std::uint64_t *findAnchorSlot(Vpn avpn, bool &is_huge);
    const std::uint64_t *findAnchorSlot(Vpn avpn, bool &is_huge) const;
};

} // namespace atlb

#endif // ANCHORTLB_OS_PAGE_TABLE_HH
