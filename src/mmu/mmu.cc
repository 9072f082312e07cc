#include "mmu.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "os/page_table.hh"
#include "trace/run_recording.hh"

namespace atlb
{

Mmu::Mmu(const MmuConfig &config, const PageTable &table, std::string name)
    : config_(config), table_(&table), name_(std::move(name)),
      l1_4k_(config.l1_4k_entries, config.l1_4k_ways, name_ + ".l1-4k"),
      l1_2m_(config.l1_2m_entries, config.l1_2m_ways, name_ + ".l1-2m")
{
    if (config_.pwc_enabled) {
        pwc_ = std::make_unique<WalkCache>(config_.pwc_pml4e_entries,
                                           config_.pwc_pdpte_entries,
                                           config_.pwc_pde_entries);
    }
    // The SIMD level is captured here, once: benches/tests that flip
    // levels in-process (forceSimdLevel) construct fresh MMUs.
    switch (simdLevel()) {
      case SimdLevel::Scalar:
        break;
#if defined(__x86_64__)
      case SimdLevel::Avx2:
        batch_vec_ = &Mmu::batchKernelAvx2;
        break;
#endif
#if defined(__aarch64__)
      case SimdLevel::Neon:
        batch_vec_ = &Mmu::batchKernelNeon;
        break;
#endif
      default:
        // A level this build cannot run; simdLevel() already rejects
        // the combination, so the scalar kernel is a safe backstop.
        break;
    }
}

void
Mmu::prefetchTranslate(Vpn vpn) const
{
    // Deliberately NOT the L1 sets: the L1 arrays are a few hundred
    // bytes and effectively cache-resident, so hinting them wastes the
    // prefetch-line budget that bounds how far ahead the kernel can
    // run without evicting its own hints. Only the walk's leaf line is
    // reliably cold here.
    table_->prefetchWalk(vpn);
}

Mmu::~Mmu() = default;

TranslationResult
Mmu::translateImpl(Vpn vpn)
{
    // L1 lookups (parallel with cache access: zero added latency).
    if (const TlbEntry *e = l1_4k_.lookup(EntryKind::Page4K,
                                          pageKey(vpn))) {
        ++stats_.l1_hits;
        return {e->ppn, 0, HitLevel::L1, PageSize::Base4K};
    }
    if (const TlbEntry *e =
            l1_2m_.lookup(EntryKind::Page2M, hugeKey(vpn))) {
        ++stats_.l1_hits;
        return {e->ppn + hugeOffset(vpn), 0, HitLevel::L1,
                PageSize::Huge2M};
    }
    return translateMiss(vpn);
}

TranslationResult
Mmu::translateMiss(Vpn vpn)
{
    const TranslationResult res = translateL2(vpn);
    noteMiss(vpn, res);
    return res;
}

void
Mmu::noteMiss(Vpn vpn, const TranslationResult &res)
{
    switch (res.level) {
      case HitLevel::L2Regular:
        ++stats_.l2_regular_hits;
        break;
      case HitLevel::Coalesced:
        ++stats_.coalesced_hits;
        break;
      case HitLevel::PageWalk:
        ++stats_.page_walks;
        break;
      case HitLevel::L1:
        ATLB_PANIC("translateL2 reported an L1 hit");
    }
    stats_.translation_cycles += res.cycles;
    fillL1(vpn, res);
}

void
Mmu::translateBatch(const MemAccess *accesses, std::size_t n,
                    BatchStats &batch)
{
    // Reference implementation (and the checked-build path, so the
    // verifyTranslation oracle sees every access): per-access
    // translate(), BatchStats recovered from the MmuStats delta.
    const std::uint64_t accesses_before = stats_.accesses;
    const std::uint64_t hits_before = stats_.l1_hits;
    for (std::size_t i = 0; i < n; ++i)
        translate(accesses[i].vaddr);
    batch.accesses += stats_.accesses - accesses_before;
    batch.l1_hits += stats_.l1_hits - hits_before;
}

void
Mmu::translateRuns(const std::uint64_t *words, std::size_t n,
                   BatchStats &batch)
{
#ifdef ANCHORTLB_CHECKED
    // Per access, like the checked translateBatch: the oracle re-walks
    // every access, and nothing is filtered.
    const std::uint64_t accesses_before = stats_.accesses;
    const std::uint64_t hits_before = stats_.l1_hits;
    for (std::size_t i = 0; i < n; ++i) {
        const VirtAddr va = vaOf(RunRecording::wordVpn(words[i]));
        for (std::uint64_t k = RunRecording::wordLength(words[i]); k > 0;
             --k)
            translate(va);
    }
    batch.accesses += stats_.accesses - accesses_before;
    batch.l1_hits += stats_.l1_hits - hits_before;
#else
    std::uint64_t n_accesses = 0;
    std::uint64_t n_hits = 0;
    std::uint64_t n_filtered = 0;
    Vpn last_vpn = invalidVpn;
    bool have_last = l0FilterLoad(last_vpn);
    const std::size_t warm = std::min(n, kBatchPrefetchDistance);
    for (std::size_t i = 0; i < warm; ++i)
        prefetchTranslate(RunRecording::wordVpn(words[i]));
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kBatchPrefetchDistance < n)
            prefetchTranslate(
                RunRecording::wordVpn(words[i + kBatchPrefetchDistance]));
        const Vpn vpn = RunRecording::wordVpn(words[i]);
        const std::uint64_t len = RunRecording::wordLength(words[i]);
        n_accesses += len;
        if (have_last && vpn == last_vpn) {
            // A run split across words, or the page the previous
            // block ended on: the whole run is the filter's.
            n_hits += len;
            n_filtered += len;
            continue;
        }
        last_vpn = vpn;
        have_last = true;
        // The run's first access probes; the rest are filtered.
        n_hits += len - 1;
        n_filtered += len - 1;
        if (l1_4k_.lookup(EntryKind::Page4K, pageKey(vpn)) != nullptr) {
            ++n_hits;
            continue;
        }
        if (l1_2m_.lookup(EntryKind::Page2M, hugeKey(vpn)) != nullptr) {
            ++n_hits;
            continue;
        }
        noteMiss(vpn, translateL2(vpn));
    }
    stats_.accesses += n_accesses;
    stats_.l1_hits += n_hits;
    batch.accesses += n_accesses;
    batch.l1_hits += n_hits;
    batch.l0_filtered += n_filtered;
    if (n > 0 && have_last)
        l0FilterStore(last_vpn);
#endif
}

void
Mmu::verifyTranslation(Vpn vpn, const TranslationResult &res) const
{
    // The guest dimension first: what does the authoritative table say?
    const WalkResult walk = table_->walk(vpn);
    ANCHOR_CHECK(walk.present,
                 "{}: fast path translated unmapped vpn {}", name_, vpn);
    Ppn expected = walk.ppn;
    if (host_table_ != nullptr) {
        const WalkResult host = host_table_->walk(hostVpnOf(walk.ppn));
        ANCHOR_CHECK(host.present, "{}: guest frame {} unmapped in host",
                     name_, walk.ppn);
        expected = host.ppn;
    }
    // guest_ppn is defined only on walk results: a TLB hit caches the
    // combined translation, the hardware no longer knows the guest
    // frame.
    if (res.level == HitLevel::PageWalk) {
        ANCHOR_CHECK_EQ(res.guest_ppn, walk.ppn,
                        "{}: wrong guest frame for vpn {}", name_, vpn);
    }
    ANCHOR_CHECK_EQ(res.ppn, expected, "{}: wrong frame for vpn {}",
                    name_, vpn);
}

void
Mmu::fillL1(Vpn vpn, const TranslationResult &res)
{
    if (res.size == PageSize::Huge2M) {
        TlbEntry e;
        e.kind = EntryKind::Page2M;
        e.key = hugeKey(vpn);
        e.ppn = res.ppn - hugeOffset(vpn);
        e.valid = true;
        l1_2m_.insert(e);
    } else {
        TlbEntry e;
        e.kind = EntryKind::Page4K;
        e.key = pageKey(vpn);
        e.ppn = res.ppn;
        e.valid = true;
        l1_4k_.insert(e);
    }
}

TranslationResult
Mmu::walkPageTable(Vpn vpn, Cycles lookup_cycles)
{
    const WalkResult walk = table_->walk(vpn);
    if (!walk.present)
        ATLB_FATAL("{}: access to unmapped vpn {}", name_, vpn);
    TranslationResult res;
    res.ppn = walk.ppn;
    res.guest_ppn = walk.ppn;
    res.size = walk.size;
    res.level = HitLevel::PageWalk;

    if (host_table_) {
        // Nested dimension: the guest frame is a guest-physical address
        // that the host table maps onto machine memory.
        const WalkResult host = host_table_->walk(hostVpnOf(walk.ppn));
        if (!host.present) {
            ATLB_FATAL("{}: guest frame {} not mapped by the host",
                       name_, walk.ppn);
        }
        res.ppn = host.ppn;
        // The combined TLB entry can only cover the smaller leaf (the
        // host guarantees contiguity only within its own page).
        if (pagesCovered(host.size) < pagesCovered(res.size))
            res.size = host.size;
        // 2D walk: every guest level fetch needs a host walk for its
        // node's GPA, plus the final data GPA: (g+1)(h+1)-1 refs.
        const unsigned refs =
            (walk.levels + 1) * (host.levels + 1) - 1;
        res.cycles = lookup_cycles + refs * config_.nested_ref_cycles;
        return res;
    }

    if (pwc_) {
        const unsigned refs = pwc_->walkRefs(vpn, walk.levels);
        res.cycles = lookup_cycles + refs * config_.pwc_mem_ref_cycles;
    } else {
        res.cycles = lookup_cycles + config_.walk_cycles;
    }
    return res;
}

void
Mmu::flushAll()
{
    // The mutation counters would catch this too, but drop the filter
    // eagerly so correctness never rests on the snapshot comparison.
    l0FilterClear();
    l1_4k_.flush();
    l1_2m_.flush();
    if (pwc_)
        pwc_->flush();
}

void
Mmu::switchProcess(const ProcessContext &ctx)
{
    ATLB_ASSERT(ctx.table, "switchProcess without a page table");
    table_ = ctx.table;
    if (policy_ == SwitchPolicy::Flush) {
        flushAll();
        return;
    }
    ATLB_ASSERT(ctx.asid.raw() != 0,
                "ASID-policy switch needs a non-zero ASID");
    asid_ = ctx.asid;
    // The hot entry the L0 filter cached belongs to the old address
    // space (the TLB mutation bump would catch it too; eager is safer).
    l0FilterClear();
    applyAsid(ctx.asid);
}

void
Mmu::applyAsid(Asid asid)
{
    l1_4k_.setAsid(asid);
    l1_2m_.setAsid(asid);
    if (pwc_)
        pwc_->flush();
}

void
Mmu::invalidatePage(Vpn vpn)
{
    l0FilterClear();
    l1_4k_.invalidate(EntryKind::Page4K, pageKey(vpn));
    l1_2m_.invalidate(EntryKind::Page2M, hugeKey(vpn));
}

void
Mmu::invalidatePage(Vpn vpn, Asid target)
{
    l0FilterClear();
    l1_4k_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    l1_2m_.invalidate(EntryKind::Page2M, hugeKey(vpn), target);
}

void
Mmu::invalidateAsid(Asid target)
{
    l0FilterClear();
    l1_4k_.invalidateAsid(target);
    l1_2m_.invalidateAsid(target);
    if (pwc_)
        pwc_->flush();
}

void
Mmu::setNested(const PageTable *host_table, const MemoryMap *host_map)
{
    ATLB_ASSERT((host_table == nullptr) == (host_map == nullptr),
                "nested mode needs both host table and host map");
    ATLB_ASSERT(!host_table || supportsNested(),
                "{} does not support nested translation", name_);
    host_table_ = host_table;
    host_map_ = host_map;
    flushAll();
}

} // namespace atlb
