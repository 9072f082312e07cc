/**
 * @file
 * Page-table construction policies, one per translation scheme.
 *
 * All schemes translate the same MemoryMap; they differ in how the OS
 * lays it into the page table:
 *
 *  - Base / plain cluster: every page is a 4KB PTE (no THP).
 *  - THP / cluster-2MB / RMM: 2MB-eligible blocks become PD-level huge
 *    leaves (ideal transparent-huge-page promotion), the rest 4KB.
 *  - Anchor: the THP layout. Every table stores each slot's anchor
 *    contiguity as it is built, for any distance (os/page_table.hh),
 *    so the anchor schemes read the THP table itself.
 */

#ifndef ANCHORTLB_OS_TABLE_BUILDER_HH
#define ANCHORTLB_OS_TABLE_BUILDER_HH

#include <cstdint>

#include "os/page_table.hh"

namespace atlb
{

class MemoryMap;

/**
 * Build a page table for @p map.
 * @param use_thp promote every huge-eligible 2MB block to a PD leaf.
 * @param use_1g  additionally promote 1GB-eligible blocks to PDPT
 *                leaves (off in the paper's Table 3 configuration; used
 *                by the 1GB-page ablation).
 */
PageTable buildPageTable(const MemoryMap &map, bool use_thp,
                         bool use_1g = false);

/**
 * True iff buildPageTable(@p map, true) maps at least one 2MB leaf:
 * some chunk's VA and PA agree modulo 2MB and it spans a whole aligned
 * 2MB block. When false, the THP table is entry-for-entry the plain
 * (all-4KB) table, so a caller may use one table for both.
 */
bool hasPromotableHugeBlock(const MemoryMap &map);

/**
 * Build the anchor scheme's page table for @p distance (power of two in
 * [2, 2^16]): the THP table, which serves every distance.
 */
PageTable buildAnchorPageTable(const MemoryMap &map, AnchorDist distance);

} // namespace atlb

#endif // ANCHORTLB_OS_TABLE_BUILDER_HH
