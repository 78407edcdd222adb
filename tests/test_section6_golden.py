"""Golden pin of the Section 6 transforms' emitted loops.

Whole-iteration assignment (``k`` = 1 and 2 extra scalar iterations) and
reduction vectorization, on eight kernels and two machines: the printed
main and cleanup loops, the live-out maps, the reduction combines and
the vector-op / transfer / merge counts must match
``tests/data/section6_transforms.txt`` byte for byte.  The printed form
carries no uids, so the text does not depend on test order.

Regenerate with ``REPRO_REGEN_GOLDEN=1`` when a change is meant to move
an emitted loop.
"""

import os

from repro.dependence.analysis import analyze_loop
from repro.ir.builder import LoopBuilder
from repro.ir.values import const_f64
from repro.machine.configs import machine_by_name
from repro.vectorize.iteration_assign import whole_iteration_transform
from repro.vectorize.reduction import vectorize_reduction_loop
from repro.workloads.kernels import ALL_KERNELS

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "section6_transforms.txt"
)



def last_value(n: int = 1024):
    """``z[i] = x[i] * 1.5`` whose product is also live out: the one
    whole-iteration loop here with a live-out, which maps to the scalar
    copy of the last iteration of a group."""
    b = LoopBuilder("last_value")
    b.array("x", dim_sizes=(n,))
    b.array("z", dim_sizes=(n,))
    xi = b.load("x", b.idx(), name="xi")
    t = b.mul(xi, const_f64(1.5), name="t")
    b.store("z", b.idx(), t)
    b.live_out(t)
    return b.build()


# Whole-iteration assignment needs a fully vectorizable loop with no
# carried scalars, reduction vectorization needs a reduction: the first
# three kernels exercise the reduction path, the last four the
# whole-iteration one, and saxpy (a carried invariant) neither.
KERNELS = {
    **{
        name: ALL_KERNELS[name]
        for name in (
            "dot_product",
            "sum_and_scale",
            "max_abs",
            "saxpy",
            "vector_scale",
            "stencil3",
            "integer_kernel",
        )
    },
    "last_value": last_value,
}
MACHINES = ("paper", "vl4")


def _liveouts(mapping) -> list[str]:
    if mapping is None:
        return ["  (none)"]
    lines = []
    for name, spec in mapping.items():
        line = f"  {name} -> {spec.register} lane={spec.lane}"
        if spec.combine is not None:
            line += f" combine={spec.combine.value}:{spec.combine_entry}"
        lines.append(line)
    return lines


def _render(title: str, result) -> list[str]:
    lines = [f"=== {title} ==="]
    if result is None:
        return lines + ["not applicable", ""]
    lines.append(
        f"factor {result.factor}: {result.n_vector_ops} vector op(s), "
        f"{result.n_transfers} transfer(s), {result.n_merges} merge(s)"
    )
    for entry, (kind, acc) in sorted(result.reduction_combines.items()):
        lines.append(f"combine {entry}: {kind.value} over {acc}")
    lines.append(str(result.loop))
    lines.append("live-out map:")
    lines += _liveouts(result.liveout_map)
    lines.append(str(result.cleanup))
    lines.append("cleanup live-out map:")
    lines += _liveouts(result.cleanup_liveout_map)
    return lines + [""]


def render_section6() -> str:
    lines: list[str] = []
    for machine_name in MACHINES:
        machine = machine_by_name(machine_name)
        for kernel, build in KERNELS.items():
            dep = analyze_loop(build(), machine.vector_length)
            for k in (1, 2):
                lines += _render(
                    f"{machine_name} {kernel} whole-iteration k={k}",
                    whole_iteration_transform(
                        dep, machine, extra_scalar_iterations=k
                    ),
                )
            lines += _render(
                f"{machine_name} {kernel} reduction",
                vectorize_reduction_loop(dep, machine),
            )
    return "\n".join(lines)


def test_section6_transforms_match_golden():
    text = render_section6()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(text)
    with open(GOLDEN, encoding="utf-8") as f:
        frozen = f.read()
    assert text == frozen, (
        "a Section 6 emitted loop changed; regenerate the golden with "
        "REPRO_REGEN_GOLDEN=1 if intentional"
    )
