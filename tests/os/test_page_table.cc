/**
 * @file
 * Tests for the radix page table and anchor-contiguity encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/logging.hh"
#include "os/distance_selector.hh"
#include "os/memory_map.hh"
#include "os/page_table.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

constexpr Vpn base{0x7f0000000ULL}; // 2MB-aligned test VPN base

/** Shorthand for the test's anchor distances. */
AnchorDist
dist(std::uint64_t pages)
{
    return AnchorDist::fromPages(pages);
}

TEST(Pte, FieldRoundTrip)
{
    const std::uint64_t e = pte::make(Ppn{0x12345}, false);
    EXPECT_TRUE(pte::present(e));
    EXPECT_FALSE(pte::huge(e));
    EXPECT_EQ(pte::pfn(e), Ppn{0x12345});
}

TEST(Pte, HugeFieldRoundTrip)
{
    const std::uint64_t e = pte::make(Ppn{0x2000}, true);
    EXPECT_TRUE(pte::present(e));
    EXPECT_TRUE(pte::huge(e));
    EXPECT_EQ(pte::hugePfn(e), Ppn{0x2000});
}

TEST(Pte, ContigByteDoesNotDisturbPfn)
{
    std::uint64_t e = pte::make(Ppn{0xabcdef}, false);
    e = pte::withContigByte(e, 0x5a);
    EXPECT_EQ(pte::pfn(e), Ppn{0xabcdef});
    EXPECT_EQ(pte::contigByte(e), 0x5a);
    e = pte::withContigByte(e, 0);
    EXPECT_EQ(pte::contigByte(e), 0);
    EXPECT_EQ(pte::pfn(e), Ppn{0xabcdef});
}

TEST(Pte, HugeContigByteCoexistsWithHugePfn)
{
    std::uint64_t e = pte::make(Ppn{0x2000}, true); // 2MB-aligned frame
    e = pte::withHugeContigByte(e, 0xff);
    e = pte::withContigByte(e, 0xee);
    EXPECT_EQ(pte::hugePfn(e), Ppn{0x2000});
    EXPECT_EQ(pte::hugeContigByte(e), 0xff);
    EXPECT_EQ(pte::contigByte(e), 0xee);
    EXPECT_TRUE(pte::huge(e));
}

TEST(PageTable, WalkUnmappedMisses)
{
    PageTable t;
    EXPECT_FALSE(t.walk(base).present);
    EXPECT_FALSE(t.walk(Vpn{0}).present);
}

TEST(PageTable, Map4KWalk)
{
    PageTable t;
    t.map4K(base + 5, Ppn{777});
    const WalkResult w = t.walk(base + 5);
    EXPECT_TRUE(w.present);
    EXPECT_EQ(w.ppn, Ppn{777});
    EXPECT_EQ(w.size, PageSize::Base4K);
    EXPECT_FALSE(t.walk(base + 4).present);
    EXPECT_FALSE(t.walk(base + 6).present);
    EXPECT_EQ(t.mapped4K(), 1u);
}

TEST(PageTable, Map2MWalkCoversBlock)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 9});
    for (const std::uint64_t off : {0ULL, 1ULL, 255ULL, 511ULL}) {
        const WalkResult w = t.walk(base + off);
        ASSERT_TRUE(w.present);
        EXPECT_EQ(w.ppn, Ppn{512 * 9} + off);
        EXPECT_EQ(w.size, PageSize::Huge2M);
    }
    EXPECT_FALSE(t.walk(base + 512).present);
    EXPECT_EQ(t.mapped2M(), 1u);
}

TEST(PageTable, PrefetchWalkIsSemanticsFree)
{
    // prefetchWalk only issues cache hints; it must be callable on any
    // VPN — 4K-mapped, 2M-mapped, unmapped, partially built subtrees —
    // and leave every later walk() result unchanged.
    PageTable t;
    t.map4K(base + 5, Ppn{777});
    t.map2M(base + 512, Ppn{512 * 9});
    for (const Vpn v : {base + 5, base + 512, base + 600, base + 4,
                        Vpn{0}, Vpn{1ULL << 40}}) {
        t.prefetchWalk(v);
        t.prefetchWalk(v); // idempotent
    }
    EXPECT_EQ(t.walk(base + 5).ppn, Ppn{777});
    EXPECT_EQ(t.walk(base + 513).ppn, Ppn{512 * 9 + 1});
    EXPECT_FALSE(t.walk(base + 4).present);
    EXPECT_FALSE(t.walk(Vpn{0}).present);
    EXPECT_EQ(t.mapped4K(), 1u);
    EXPECT_EQ(t.mapped2M(), 1u);
}

TEST(PageTable, MixedSizesCoexist)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 4});
    t.map4K(base + 512, Ppn{99});
    EXPECT_EQ(t.walk(base + 100).size, PageSize::Huge2M);
    EXPECT_EQ(t.walk(base + 512).size, PageSize::Base4K);
    EXPECT_EQ(t.walk(base + 512).ppn, Ppn{99});
}

TEST(PageTable, MoveSemantics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    PageTable u = std::move(t);
    EXPECT_TRUE(u.walk(base).present);
}

/** Every page of every chunk of @p m. */
std::vector<Vpn>
mappedVpns(const MemoryMap &m)
{
    std::vector<Vpn> out;
    for (const Chunk &c : m.chunks())
        for (Vpn v = c.vpn; v < c.vpnEnd(); ++v)
            out.push_back(v);
    return out;
}

/** Every VPN of @p m a sweep at @p d visits (aligned, inside a chunk). */
std::vector<Vpn>
anchorVpns(const MemoryMap &m, AnchorDist d)
{
    std::vector<Vpn> out;
    for (const Chunk &c : m.chunks())
        for (Vpn v = c.vpn.alignUp(d.pages()); v < c.vpnEnd();
             v += d.pages())
            out.push_back(v);
    return out;
}

void
expectSameWalks(const PageTable &a, const PageTable &b,
                const std::vector<Vpn> &vpns)
{
    for (const Vpn v : vpns) {
        const WalkResult wa = a.walk(v);
        const WalkResult wb = b.walk(v);
        ASSERT_EQ(wa.present, wb.present) << "vpn " << v.raw();
        ASSERT_EQ(wa.ppn, wb.ppn) << "vpn " << v.raw();
        ASSERT_EQ(wa.size, wb.size) << "vpn " << v.raw();
        ASSERT_EQ(wa.levels, wb.levels) << "vpn " << v.raw();
    }
}

void
expectSameCounts(const PageTable &a, const PageTable &b)
{
    EXPECT_EQ(a.mapped4K(), b.mapped4K());
    EXPECT_EQ(a.mapped2M(), b.mapped2M());
    EXPECT_EQ(a.mapped1G(), b.mapped1G());
    EXPECT_EQ(a.nodeCount(), b.nodeCount());
}

class AnchorEncoding
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>>
{
};

TEST_P(AnchorEncoding, RoundTripAt4KEntries)
{
    const auto [distance, contig] = GetParam();
    PageTable t;
    // Map a run long enough to hold the anchor and its neighbour.
    for (Vpn v = base; v < base + 4; ++v)
        t.map4K(v, Ppn{5000 + (v - base)});
    t.setAnchorContiguity(base, contig, dist(distance));
    EXPECT_EQ(t.anchorContiguity(base, dist(distance)), contig);
    // PFNs must be undisturbed by the encoding.
    EXPECT_EQ(t.walk(base).ppn, Ppn{5000});
    EXPECT_EQ(t.walk(base + 1).ppn, Ppn{5001});
}

INSTANTIATE_TEST_SUITE_P(
    DistancesAndContigs, AnchorEncoding,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{2, 1},
                      std::pair<std::uint64_t, std::uint64_t>{2, 2},
                      std::pair<std::uint64_t, std::uint64_t>{8, 8},
                      std::pair<std::uint64_t, std::uint64_t>{64, 33},
                      std::pair<std::uint64_t, std::uint64_t>{256, 256},
                      std::pair<std::uint64_t, std::uint64_t>{512, 257},
                      std::pair<std::uint64_t, std::uint64_t>{512, 512},
                      std::pair<std::uint64_t, std::uint64_t>{4096, 4096},
                      std::pair<std::uint64_t, std::uint64_t>{65536,
                                                              65536}));

TEST(PageTableAnchor, HighByteLivesInNeighbourEntry)
{
    PageTable t;
    for (Vpn v = base; v < base + 2; ++v)
        t.map4K(v, Ppn{100 + (v - base)});
    // Contiguity 300 with distance 512 needs the neighbour's byte.
    t.setAnchorContiguity(base, 300, dist(512));
    EXPECT_EQ(t.anchorContiguity(base, dist(512)), 300u);
    // The neighbour entry still translates normally.
    EXPECT_EQ(t.walk(base + 1).ppn, Ppn{101});
}

TEST(PageTableAnchor, ClearRemovesAnchor)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    t.map4K(base + 1, Ppn{2});
    t.setAnchorContiguity(base, 400, dist(512));
    t.setAnchorContiguity(base, 0, dist(512));
    // Cleared anchor reads back as the self-covering minimum.
    EXPECT_EQ(t.anchorContiguity(base, dist(512)), 1u);
}

TEST(PageTableAnchor, HugeAnchorStoresFullContiguity)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 20});
    t.setAnchorContiguity(base, 40000, dist(65536));
    EXPECT_EQ(t.anchorContiguity(base, dist(65536)), 40000u);
    // Frame must be intact after packing 16 bits into the entry.
    EXPECT_EQ(t.walk(base).ppn, Ppn{512 * 20});
    EXPECT_EQ(t.walk(base + 511).ppn, Ppn{512 * 20 + 511});
}

TEST(PageTableAnchor, InsideHugePageHasNoAnchorSlot)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 20});
    // distance 8 anchor at base+8 falls inside the huge page.
    EXPECT_EQ(t.anchorContiguity(base + 8, dist(8)), 0u);
}

TEST(PageTableAnchor, UnmappedAnchorReadsZero)
{
    PageTable t;
    EXPECT_EQ(t.anchorContiguity(base, dist(64)), 0u);
}

TEST(PageTableAnchor, SweepSetsAllAnchorsOfChunk)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{100}); // unaligned-by-8 length
    m.finalize();
    PageTable t = buildPageTable(m, false);
    // Anchors at base+0, +8, ..., +96: thirteen aligned positions.
    const std::uint64_t touched = t.sweepAnchors(m, dist(8));
    EXPECT_EQ(touched, 13u);
    // Interior anchors carry min(run, distance).
    EXPECT_EQ(t.anchorContiguity(base, dist(8)), 8u);
    EXPECT_EQ(t.anchorContiguity(base + 48, dist(8)), 8u);
    // Final anchor covers only the tail.
    EXPECT_EQ(t.anchorContiguity(base + 96, dist(8)), 4u);
}

TEST(PageTableAnchor, SweepCapsAtDistance)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{1000});
    m.finalize();
    PageTable t = buildPageTable(m, false);
    t.sweepAnchors(m, dist(64));
    EXPECT_EQ(t.anchorContiguity(base, dist(64)), 64u);
}

TEST(PageTableAnchor, OneTableReadsEveryDistance)
{
    // 700 pages from a 512-aligned start: leaf entry 0 stores 700, so
    // reads at any distance clip it, in any order.
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{700});
    m.finalize();
    const PageTable t = buildPageTable(m, false);
    EXPECT_EQ(t.anchorContiguity(base + 8, dist(8)), 8u);
    EXPECT_EQ(t.anchorContiguity(base, dist(32)), 32u);
    EXPECT_EQ(t.anchorContiguity(base, dist(256)), 256u);
    EXPECT_EQ(t.anchorContiguity(base, dist(1024)), 700u);
    EXPECT_EQ(t.anchorContiguity(base, dist(8)), 8u);
    EXPECT_EQ(t.anchorContiguity(base + 8, dist(8)), 8u);
    // base + 512 is leaf entry 0 of the next node: 188 pages remain.
    EXPECT_EQ(t.anchorContiguity(base + 512, dist(512)), 188u);
    EXPECT_EQ(t.anchorContiguity(base + 512, dist(128)), 128u);
    EXPECT_EQ(t.anchorContiguity(base + 640, dist(128)), 60u);
}

TEST(PageTableAnchor, SweepCountIncludesClearingPass)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{64});
    m.finalize();
    const PageTable t = buildPageTable(m, false);
    // Moving from distance 8 to 32 clears 8 anchors and sets 2.
    EXPECT_EQ(t.sweepAnchors(m, dist(32), dist(8)), 10u);
    // A fresh table, or an unchanged distance, has nothing to clear.
    EXPECT_EQ(t.sweepAnchors(m, dist(32)), 2u);
    EXPECT_EQ(t.sweepAnchors(m, dist(32), dist(32)), 2u);
}

TEST(PageTableAnchor, SweepCountGrowsWithSmallerDistance)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{1 << 15});
    m.finalize();
    PageTable t = buildPageTable(m, false);
    const std::uint64_t big = t.sweepAnchors(m, dist(512));
    PageTable t2 = buildPageTable(m, false);
    const std::uint64_t small = t2.sweepAnchors(m, dist(8));
    EXPECT_GT(small, big * 32);
}

/**
 * Anchor contiguity at @p avpn for @p d, computed only from the map and
 * a walk of @p table: min(run, d, 2^16) for a present 4KB page, the
 * same for the first page of a 2MB leaf when d >= 512, else 0.
 */
std::uint64_t
referenceContiguity(const MemoryMap &m, const PageTable &table, Vpn avpn,
                    AnchorDist d)
{
    const WalkResult w = table.walk(avpn);
    if (!w.present)
        return 0;
    if (w.size == PageSize::Huge2M &&
        (!avpn.isAligned(hugePages) || d.pages() < hugePages))
        return 0;
    return std::min<std::uint64_t>(
        {m.contiguityFrom(avpn), d.pages(), PageTable::maxContiguity});
}

TEST(PageTableAnchor, DistanceFreeReadMatchesReference)
{
    // Every aligned anchor of every candidate distance, on the plain and
    // THP tables of every paper workload and scenario at two seeds: the
    // contiguity stored once at build and clipped at read must equal
    // what the paper's OS would have swept in for that distance.
    std::uint64_t reads = 0;
    std::uint64_t wide_clipped = 0; // leaf entry 0, d <= 256, run > 256
    std::uint64_t huge_below = 0;   // 2MB slot read at d < 512
    std::uint64_t huge_wide = 0;    // 2MB slot holding more than 512
    for (const std::uint64_t seed : {1ULL, 7919ULL}) {
        SimOptions opts;
        opts.seed = seed;
        opts.footprint_scale = 0.05;
        for (const std::string &workload : paperWorkloadNames()) {
            const WorkloadSpec spec = scaledWorkloadSpec(opts, workload);
            for (const ScenarioKind kind : allScenarios) {
                const MemoryMap m =
                    buildScenario(kind, scenarioParamsFor(opts, spec));
                for (const bool use_thp : {false, true}) {
                    SCOPED_TRACE(testing::Message()
                                 << workload << "/" << scenarioName(kind)
                                 << (use_thp ? "/thp" : "/plain")
                                 << " seed " << seed);
                    const PageTable t = buildPageTable(m, use_thp);
                    for (const std::uint64_t pages : candidateDistances()) {
                        const AnchorDist d = dist(pages);
                        for (const Chunk &c : m.chunks()) {
                            // One past the chunk may be unmapped.
                            for (Vpn v = c.vpn.alignUp(pages);
                                 v <= c.vpnEnd(); v += pages) {
                                const std::uint64_t want =
                                    referenceContiguity(m, t, v, d);
                                ASSERT_EQ(t.anchorContiguity(v, d), want)
                                    << "anchor vpn " << v.raw() << " d "
                                    << pages;
                                ++reads;
                                const WalkResult w = t.walk(v);
                                const bool huge =
                                    w.present &&
                                    w.size == PageSize::Huge2M;
                                wide_clipped +=
                                    !huge && v.isAligned(hugePages) &&
                                    pages <= 256 &&
                                    m.contiguityFrom(v) > 256;
                                huge_below += huge &&
                                              v.isAligned(hugePages) &&
                                              pages < hugePages;
                                huge_wide += huge && want > hugePages;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(reads, 0u);
    // The cases a one-byte read or a missing 2MB rule would get wrong.
    EXPECT_GT(wide_clipped, 0u);
    EXPECT_GT(huge_below, 0u);
    EXPECT_GT(huge_wide, 0u);
}

/**
 * The table buildPageTable lays out for @p m, mapped one page (or one
 * 2MB block) per call: the reference for the run-filled build.
 */
PageTable
buildPageByPage(const MemoryMap &m, bool use_thp)
{
    PageTable t;
    for (const Chunk &c : m.chunks()) {
        const bool thp_ok = use_thp && c.ppn.offsetIn(hugePages) ==
                                           c.vpn.offsetIn(hugePages);
        for (Vpn v = c.vpn; v < c.vpnEnd();) {
            if (thp_ok && v.isAligned(hugePages) &&
                c.vpnEnd() - v >= PageCount{hugePages}) {
                t.map2M(v, c.translate(v), c.vpnEnd() - v);
                v += hugePages;
            } else {
                t.map4K(v, c.translate(v), PageCount{1}, c.vpnEnd() - v);
                ++v;
            }
        }
    }
    return t;
}

TEST(PageTableRun, RunBuildMatchesPerPageBuild)
{
    std::uint64_t runs_2m = 0;
    for (const ScenarioKind kind : allScenarios) {
        SCOPED_TRACE(scenarioName(kind));
        ScenarioParams p;
        p.footprint_pages = 24 * 1024;
        p.seed = 11;
        p.demand_run_pages = 2048;
        p.eager_run_pages = 2048;
        const MemoryMap m = buildScenario(kind, p);
        const std::vector<Vpn> vpns = mappedVpns(m);
        for (const bool use_thp : {false, true}) {
            SCOPED_TRACE(use_thp ? "thp" : "plain");
            PageTable run = buildPageTable(m, use_thp);
            PageTable page = buildPageByPage(m, use_thp);
            expectSameCounts(run, page);
            expectSameWalks(run, page, vpns);
            EXPECT_EQ(run.mapped4K() + run.mapped2M() * hugePages,
                      std::uint64_t{m.mappedPages()});
            runs_2m += run.mapped2M();
            for (const std::uint64_t d : {2, 256, 512, 65536}) {
                SCOPED_TRACE(d);
                for (const Vpn v : anchorVpns(m, dist(d))) {
                    ASSERT_EQ(run.anchorContiguity(v, dist(d)),
                              page.anchorContiguity(v, dist(d)))
                        << "anchor vpn " << v.raw();
                }
            }
        }
    }
    // The THP layouts must include 2MB leaves between 4KB runs.
    EXPECT_GT(runs_2m, 0u);
}

TEST(PageTableRun, RunCrossesTwoLeafBoundaries)
{
    // Starts 12 entries before the end of one leaf node, fills the next
    // one whole and ends 30 entries into a third.
    const Vpn first = base + 500;
    const PageCount pages{12 + 512 + 30};
    PageTable run;
    run.map4K(first, Ppn{70000}, pages);
    PageTable page;
    for (Vpn v = first; v < first + pages; ++v)
        page.map4K(v, Ppn{70000} + (v - first));

    EXPECT_EQ(run.mapped4K(), std::uint64_t{pages});
    // Root, PDPT, PD and three leaf nodes.
    EXPECT_EQ(run.nodeCount(), 6u);
    expectSameCounts(run, page);
    std::vector<Vpn> vpns;
    for (Vpn v = first - 2; v < first + pages + 2; ++v)
        vpns.push_back(v);
    expectSameWalks(run, page, vpns);
    EXPECT_FALSE(run.walk(first - 1).present);
    EXPECT_EQ(run.walk(base + 512).ppn, Ppn{70000 + 12});
    EXPECT_EQ(run.walk(first + pages - 1).ppn,
              Ppn{70000} + (std::uint64_t{pages} - 1));
    EXPECT_FALSE(run.walk(first + pages).present);
}

TEST(PageTableRun, RunKeepsParkedHighContiguityByte)
{
    // The anchor at base parks the high byte of its contiguity in the
    // next entry before that page is mapped; a run over the slot must
    // keep the byte.
    PageTable t;
    t.map4K(base, Ppn{4096});
    t.setAnchorContiguity(base, 300, dist(512));
    t.map4K(base + 1, Ppn{4097}, PageCount{600});
    EXPECT_EQ(t.anchorContiguity(base, dist(512)), 300u);
    EXPECT_EQ(t.walk(base + 1).ppn, Ppn{4097});
    EXPECT_EQ(t.walk(base + 600).ppn, Ppn{4096 + 600});
    EXPECT_EQ(t.mapped4K(), 601u);
}

TEST(TableBuilder, PromotableHugeBlockPredicate)
{
    struct Case
    {
        std::uint64_t vpn_off;
        std::uint64_t ppn;
        std::uint64_t pages;
        bool promotable;
    };
    // Aligned with one whole block; VA and PA disagreeing mod 2MB; an
    // unaligned start with the block [512, 1024) inside; one with no
    // whole aligned block; one page short of a block.
    const std::vector<Case> cases = {
        {0, 512 * 8, 600, true},
        {0, 512 * 8 + 1, 600, false},
        {100, 512 * 8 + 100, 1000, true},
        {100, 512 * 8 + 100, 700, false},
        {0, 512 * 8, 511, false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << "vpn +" << c.vpn_off << " ppn "
                                        << c.ppn << " pages " << c.pages);
        MemoryMap m;
        m.add(base + c.vpn_off, Ppn{c.ppn}, PageCount{c.pages});
        m.finalize();
        EXPECT_EQ(hasPromotableHugeBlock(m), c.promotable);
        EXPECT_EQ(buildPageTable(m, true).mapped2M() != 0, c.promotable);
    }
}

class PageTableErrors : public ::testing::Test
{
  protected:
    void SetUp() override { detail::setThrowOnError(true); }
    void TearDown() override { detail::setThrowOnError(false); }
};

TEST_F(PageTableErrors, DoubleMapPanics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    EXPECT_THROW(t.map4K(base, Ppn{2}), std::logic_error);
}

TEST_F(PageTableErrors, MisalignedHugeMapPanics)
{
    PageTable t;
    EXPECT_THROW(t.map2M(base + 1, Ppn{512}), std::logic_error);
}

TEST_F(PageTableErrors, HugeOverExisting4KPanics)
{
    PageTable t;
    t.map4K(base + 3, Ppn{1});
    EXPECT_THROW(t.map2M(base, Ppn{512}), std::logic_error);
}

TEST_F(PageTableErrors, RunOverMappedPagePanics)
{
    // The mapped page sits in the run's second leaf node.
    PageTable t;
    t.map4K(base + 700, Ppn{1});
    EXPECT_THROW(t.map4K(base + 100, Ppn{5000}, PageCount{1000}),
                 std::logic_error);
}

TEST_F(PageTableErrors, RunOverHugePagePanics)
{
    PageTable t;
    t.map2M(base + 512, Ppn{512 * 4});
    EXPECT_THROW(t.map4K(base + 500, Ppn{5000}, PageCount{20}),
                 std::logic_error);
}

TEST_F(PageTableErrors, AnchorOnUnalignedVpnPanics)
{
    PageTable t;
    t.map4K(base + 1, Ppn{1});
    EXPECT_THROW(t.setAnchorContiguity(base + 1, 1, dist(8)),
                 std::logic_error);
}

TEST_F(PageTableErrors, ContiguityBeyondDistancePanics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    EXPECT_THROW(t.setAnchorContiguity(base, 9, dist(8)),
                 std::logic_error);
}

TEST_F(PageTableErrors, BadDistancePanics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    EXPECT_THROW(t.setAnchorContiguity(base, 1, dist(3)),
                 std::logic_error);
    EXPECT_THROW(t.setAnchorContiguity(base, 1, dist(1)),
                 std::logic_error);
}

} // namespace
} // namespace atlb
