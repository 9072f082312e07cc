#include "table_builder.hh"

#include <algorithm>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "os/memory_map.hh"

namespace atlb
{

namespace
{

/**
 * A chunk is promotable iff VA and PA agree modulo the block size: then
 * every aligned virtual block inside it has a naturally aligned
 * physical base. (offsetIn equality is the typed spelling of
 * (ppn - vpn) % block == 0.)
 */
bool
promotable(const Chunk &c, std::uint64_t block)
{
    return c.ppn.offsetIn(block) == c.vpn.offsetIn(block);
}

/** The whole 2MB blocks of [vpn, limit), as [lo, hi); empty if lo == hi. */
std::pair<Vpn, Vpn>
hugeSpan(Vpn vpn, Vpn limit)
{
    const Vpn lo = std::min(vpn.alignUp(hugePages), limit);
    return {lo, std::max(limit.alignDown(hugePages), lo)};
}

/**
 * Map [*vpn, limit) of @p c with 4KB pages, as one run whose slots
 * store their contiguity to the chunk's end.
 */
void
map4KUpTo(PageTable &table, const Chunk &c, Vpn &vpn, Vpn limit)
{
    table.map4K(vpn, c.translate(vpn), limit - vpn, c.vpnEnd() - vpn);
    vpn = limit;
}

/** Map [*vpn, limit) with 2MB leaves where possible, 4KB otherwise. */
void
mapUpTo(PageTable &table, const Chunk &c, Vpn &vpn, Vpn limit,
        bool thp_ok)
{
    if (thp_ok) {
        const auto [huge_lo, huge_hi] = hugeSpan(vpn, limit);
        map4KUpTo(table, c, vpn, huge_lo);
        for (; vpn < huge_hi; vpn += hugePages)
            table.map2M(vpn, c.translate(vpn), c.vpnEnd() - vpn);
    }
    map4KUpTo(table, c, vpn, limit);
}

} // namespace

bool
hasPromotableHugeBlock(const MemoryMap &map)
{
    return std::ranges::any_of(map.chunks(), [](const Chunk &c) {
        const auto [lo, hi] = hugeSpan(c.vpn, c.vpnEnd());
        return promotable(c, hugePages) && lo < hi;
    });
}

PageTable
buildPageTable(const MemoryMap &map, bool use_thp, bool use_1g)
{
    ATLB_ASSERT(map.finalized(), "building table from unfinalized map");
    PageTable table;
    for (const Chunk &c : map.chunks()) {
        Vpn vpn = c.vpn;
        const Vpn end = c.vpnEnd();
        const bool thp_ok = use_thp && promotable(c, hugePages);
        const bool giant_ok = use_1g && promotable(c, giantPages);
        if (giant_ok) {
            const Vpn giant_lo = std::min(vpn.alignUp(giantPages), end);
            const Vpn giant_hi =
                std::max(end.alignDown(giantPages), giant_lo);
            mapUpTo(table, c, vpn, giant_lo, thp_ok);
            for (; vpn < giant_hi; vpn += giantPages)
                table.map1G(vpn, c.translate(vpn));
        }
        mapUpTo(table, c, vpn, end, thp_ok);
    }
    return table;
}

PageTable
buildAnchorPageTable(const MemoryMap &map, AnchorDist distance)
{
    ATLB_ASSERT(distance.valid() &&
                    distance.pages() <= PageTable::maxContiguity,
                "bad anchor distance {}", distance);
    return buildPageTable(map, true);
}

} // namespace atlb
