"""The VM translation fast path: interval index vs linear scan.

The property test drives randomized attach/detach/grow/shadow sequences
and asserts the indexed and linear lookups agree on every probe — the
index is an optimization, never a semantic change — that the bisect
``check_overlap`` agrees with a brute-force overlap scan, and that the
sorted views stay coherent with their lists.  The rest covers stack
growth re-keying, the one-pass detach regression, the ablation flag,
and determinism.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.mem.addrspace import AddressSpace, SharedVM, make_region
from repro.mem.frames import PAGE_SIZE
from repro.mem.pregion import Growth, PROT_RW, Pregion
from repro.mem.region import RegionType
from repro.mem.vmindex import PregionList
from repro.sim.machine import Machine
from repro.system import System
from repro import PR_SALL

SLOT_PAGES = 16
NSLOTS = 12
BASE = 0x10000000


def _slot_base(slot):
    return BASE + slot * SLOT_PAGES * PAGE_SIZE


def _make_pregion(machine, slot, growth):
    base = _slot_base(slot)
    if growth is Growth.DOWN:
        # Top of the slot, ceiling sized so it can reach the slot base.
        vbase = base + (SLOT_PAGES - 6) * PAGE_SIZE
        region = make_region(machine.frames, 2 * PAGE_SIZE, RegionType.STACK)
        return Pregion(region, vbase, PROT_RW, Growth.DOWN,
                       max_pages=SLOT_PAGES - 4)
    if growth is Growth.UP:
        region = make_region(machine.frames, 2 * PAGE_SIZE, RegionType.DATA)
        return Pregion(region, base, PROT_RW, Growth.UP,
                       max_pages=SLOT_PAGES)
    region = make_region(machine.frames, 3 * PAGE_SIZE, RegionType.SHM)
    return Pregion(region, base, PROT_RW)


def _assert_equivalent(machine, vm):
    for slot in range(NSLOTS):
        for page in (0, 1, 7, SLOT_PAGES - 6, SLOT_PAGES - 1):
            vaddr = _slot_base(slot) + page * PAGE_SIZE + 4
            lin = vm._find_linear(vaddr)
            idx = vm._find_indexed(vaddr)
            assert lin[0] is idx[0], hex(vaddr)
            assert lin[1] == idx[1], hex(vaddr)
            machine.vm_index = "linear"
            grow_lin = vm._growable_stack(vaddr)
            machine.vm_index = "indexed"
            grow_idx = vm._growable_stack(vaddr)
            if grow_lin is None:
                assert grow_idx is None, hex(vaddr)
            else:
                assert grow_idx is not None, hex(vaddr)
                assert grow_lin[0] is grow_idx[0]
                assert grow_lin[1] == grow_idx[1]


def _assert_overlap_matches_brute_force(vm, rng):
    for _ in range(8):
        vlow = _slot_base(0) + rng.randrange(NSLOTS * SLOT_PAGES) * PAGE_SIZE
        vhigh = vlow + rng.randint(1, 2 * SLOT_PAGES) * PAGE_SIZE
        expect = any(p.overlaps(vlow, vhigh) for p, _ in vm.iter_pregions())
        try:
            vm.check_overlap(vlow, vhigh)
        except SimulationError:
            assert expect, "%#x..%#x" % (vlow, vhigh)
        else:
            assert not expect, "%#x..%#x" % (vlow, vhigh)


def _assert_index_coherent(vm):
    assert vm.private.index_errors() == []
    assert vm.shared.pregions.index_errors() == []


@pytest.mark.parametrize("seed", range(8))
def test_index_matches_linear_scan_under_random_traffic(seed):
    machine = Machine(ncpus=1)
    shared_vm = SharedVM(machine)
    vm = AddressSpace(machine, shared=shared_vm)
    rng = random.Random(seed)
    private_at = {}
    shared_at = {}

    for _ in range(80):
        op = rng.choice(
            ["attach_private", "attach_shared", "shadow",
             "detach", "grow_up", "grow_down"]
        )
        if op == "attach_private":
            free = [s for s in range(NSLOTS)
                    if s not in private_at and s not in shared_at]
            if free:
                slot = rng.choice(free)
                growth = rng.choice([Growth.NONE, Growth.UP, Growth.DOWN])
                pregion = _make_pregion(machine, slot, growth)
                vm.attach_private(pregion)
                private_at[slot] = pregion
        elif op == "attach_shared":
            free = [s for s in range(NSLOTS)
                    if s not in private_at and s not in shared_at]
            if free:
                slot = rng.choice(free)
                growth = rng.choice([Growth.NONE, Growth.UP, Growth.DOWN])
                pregion = _make_pregion(machine, slot, growth)
                vm.attach_shared(pregion)
                shared_at[slot] = pregion
        elif op == "shadow":
            # Private shadows shared: same slot on both lists; the
            # private-first lookup order must win in both modes.
            eligible = [s for s in shared_at if s not in private_at]
            if eligible:
                slot = rng.choice(eligible)
                pregion = _make_pregion(machine, slot, Growth.NONE)
                vm.attach_private(pregion, allow_shadow=True)
                private_at[slot] = pregion
        elif op == "detach":
            table = rng.choice([private_at, shared_at])
            if table:
                slot = rng.choice(sorted(table))
                vm.detach(table.pop(slot))
        elif op == "grow_up":
            candidates = [
                p for p in list(private_at.values()) + list(shared_at.values())
                if p.growth is Growth.UP
                and p.region.npages + 1 <= p.max_pages
            ]
            if candidates:
                rng.choice(candidates).grow_up(1)
        elif op == "grow_down":
            candidates = [
                p for p in list(private_at.values()) + list(shared_at.values())
                if p.growth is Growth.DOWN
            ]
            if candidates:
                pregion = rng.choice(candidates)
                target = pregion.vlow - PAGE_SIZE
                if pregion.can_grow_down_to(target):
                    pregion.grow_down_to(target)
        _assert_equivalent(machine, vm)
        _assert_overlap_matches_brute_force(vm, rng)
        _assert_index_coherent(vm)


def test_grown_stack_is_rekeyed_in_both_views():
    """grow_down_to moves a stack's vlow; lookup and the growth probe
    must find it at the new key without any rebuild."""
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    stacks = [_make_pregion(machine, slot, Growth.DOWN) for slot in (0, 1, 2)]
    for slot in (3, 4):
        vm.attach_private(_make_pregion(machine, slot, Growth.NONE))
    for stack in stacks:
        vm.attach_private(stack)
    middle = stacks[1]
    old_vlow = middle.vlow
    new_vlow = _slot_base(1) + PAGE_SIZE
    assert middle.grow_down_to(new_vlow + 4) == (old_vlow - new_vlow) // PAGE_SIZE
    assert middle.vlow == new_vlow
    assert vm.private.index_errors() == []
    for vaddr in (new_vlow, new_vlow + 4, old_vlow - 4, old_vlow):
        assert vm.private.lookup(vaddr)[0] is middle, hex(vaddr)
    assert vm.private.lookup(new_vlow - 4)[0] is None
    # Below the new base, the grown stack is the nearest one above...
    assert vm.private.nearest_down_above(new_vlow - 4)[0] is middle
    assert vm._growable_stack(new_vlow - 4) == (middle, False)
    # ...and at or above it, the next stack up is.
    assert vm.private.nearest_down_above(new_vlow)[0] is stacks[2]
    assert vm.private.nearest_down_above(stacks[0].vlow - 4)[0] is stacks[0]
    vm.detach(middle)
    assert vm.private.index_errors() == []
    assert vm.private.nearest_down_above(new_vlow - 4)[0] is stacks[2]


def test_index_errors_report_a_corrupted_list():
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    stack = _make_pregion(machine, 1, Growth.DOWN)
    vm.attach_private(_make_pregion(machine, 0, Growth.NONE))
    vm.attach_private(stack)
    assert vm.private.index_errors() == []
    # A vlow that moves without a re-key leaves both views stale.
    stack.vbase -= 2 * PAGE_SIZE
    errors = vm.private.index_errors()
    assert any("sorted view keys" in error for error in errors)
    assert any("stack view keys" in error for error in errors)
    stack.vbase += 2 * PAGE_SIZE
    # A member slipped into the list behind the index's back.
    list.append(vm.private, _make_pregion(machine, 2, Growth.NONE))
    errors = vm.private.index_errors()
    assert any("holds other pregions" in error for error in errors)
    assert any("owner" in error for error in errors)
    # Overlapping members break the one-candidate bisect.
    overlapping = PregionList(
        [_make_pregion(machine, 0, Growth.NONE),
         _make_pregion(machine, 0, Growth.UP)])
    assert any("overlaps" in error for error in overlapping.index_errors())


def test_detach_of_unattached_raises():
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    loose = _make_pregion(machine, 0, Growth.NONE)
    with pytest.raises(SimulationError):
        vm.detach(loose)


def test_double_detach_raises():
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    pregion = _make_pregion(machine, 0, Growth.NONE)
    vm.attach_private(pregion)
    vm.detach(pregion)
    with pytest.raises(SimulationError):
        vm.detach(pregion)


def test_detach_from_wrong_space_raises():
    machine = Machine(ncpus=1)
    vm_a = AddressSpace(machine)
    vm_b = AddressSpace(machine)
    pregion = _make_pregion(machine, 0, Growth.NONE)
    vm_a.attach_private(pregion)
    with pytest.raises(SimulationError):
        vm_b.detach(pregion)
    # still attached where it belongs
    assert pregion in vm_a.private
    vm_a.detach(pregion)


def test_list_reassignment_keeps_owner_backrefs():
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    keep = _make_pregion(machine, 0, Growth.NONE)
    drop = _make_pregion(machine, 1, Growth.NONE)
    vm.attach_private(keep)
    vm.attach_private(drop)
    vm.private = [keep]
    assert keep.owner is vm.private
    assert drop.owner is None
    found, shared = vm.find(_slot_base(0) + 4)
    assert found is keep and not shared
    assert vm.find(_slot_base(1) + 4) == (None, False)


def test_unknown_vm_index_mode_rejected():
    with pytest.raises(ValueError):
        System(ncpus=1, vm_index="btree")


def _mapping_workload(api, ctx):
    bases = []
    for _ in range(ctx["nmaps"]):
        base = yield from api.mmap(PAGE_SIZE)
        yield from api.store_word(base, 1)
        bases.append(base)
    total = 0
    for base in bases:
        value = yield from api.load_word(base)
        total += value
    ctx["out"]["total"] = total
    return 0


def _group_workload(api, ctx):
    def member(api, ctx):
        for base in ctx["bases"]:
            yield from api.load_word(base)
        return 0

    bases = []
    for _ in range(ctx["nmaps"]):
        base = yield from api.mmap(PAGE_SIZE)
        yield from api.store_word(base, 1)
        bases.append(base)
    ctx["bases"] = bases
    for _ in range(3):
        yield from api.sproc(member, PR_SALL, ctx)
    for _ in range(3):
        yield from api.wait()
    ctx["out"]["done"] = True
    return 0


def _run_mode(main, vm_index, nmaps=10, metrics=True):
    out = {}
    sim = System(ncpus=2, vm_index=vm_index, metrics_enabled=metrics)
    sim.spawn(main, {"nmaps": nmaps, "out": out})
    cycles = sim.run()
    return cycles, out, sim


def test_modes_agree_without_shrink_or_detach():
    """Lookup strategy is invisible to the timeline: absent range
    shootdowns, indexed and linear runs are cycle-identical."""
    for main in (_mapping_workload, _group_workload):
        cyc_lin, out_lin, _ = _run_mode(main, "linear")
        cyc_idx, out_idx, _ = _run_mode(main, "indexed")
        assert cyc_lin == cyc_idx
        assert out_lin == out_idx


def test_linear_mode_is_deterministic():
    runs = [_run_mode(_group_workload, "linear")[0] for _ in range(2)]
    assert runs[0] == runs[1]
    quiet = _run_mode(_group_workload, "linear", metrics=False)[0]
    assert quiet == runs[0]


def test_indexed_mode_is_deterministic():
    runs = [_run_mode(_group_workload, "indexed")[0] for _ in range(2)]
    assert runs[0] == runs[1]
    quiet = _run_mode(_group_workload, "indexed", metrics=False)[0]
    assert quiet == runs[0]


def test_scan_length_counters_flow():
    cycles, _out, sim = _run_mode(_group_workload, "indexed")
    kernel = sim.kstat.scope("kernel", 0)
    assert kernel.get("vm_lookups", 0) > 0
    assert kernel.get("pregion_scan_len", 0) > 0
    assert kernel.get("vm_index_hits", 0) > 0
    lin_sim = _run_mode(_group_workload, "linear")[2]
    lin_kernel = lin_sim.kstat.scope("kernel", 0)
    assert lin_kernel.get("vm_lookups", 0) > 0
    assert "vm_index_hits" not in lin_kernel
