"""Mutation battery: every mutant in MUTANTS must fail the tests named for it.

    python3 tools/mutants.py

Each mutant names a file of the repository, an exact old text, the new text
that replaces it, and the tests (files or pytest node ids) that must fail
once it is replaced. For each mutant the script copies `src/`, `tests/` and
`pyproject.toml` into a fresh temporary directory, makes the replacement
there and runs pytest on the named tests only. The working tree is never
touched. First, every named test must pass on an unmutated copy.

The exit code is 1 when a mutant survives (its tests pass), when its old
text does not occur exactly once in its file, or when pytest does not run
its tests to a verdict (a collection or usage error). So the list has to
follow refactors of the code it mutates. Standard library only; pytest does
not collect this file, because its `testpaths` is `tests`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Mutant:
    def __init__(self, name: str, path: str, old: str, new: str,
                 tests: tuple) -> None:
        self.name, self.path, self.old, self.new = name, path, old, new
        self.tests = tests


MUTANTS = [
    # associativity rows are counted without being compared
    Mutant("rows-differing-counted-as-agreeing", "src/kitealg/axioms.py",
           "            if got != row:\n",
           "            if False:\n",
           ("tests/test_axioms.py",)),
    # a differing row is passed over instead of reported
    Mutant("differing-row-skipped", "src/kitealg/axioms.py",
           "                return x, y, sample[k], row[k], got[k]\n",
           "                continue\n",
           ("tests/test_axioms.py",)),
    # the agreeing triples before the first difference are not counted
    Mutant("count-before-difference-dropped", "src/kitealg/axioms.py",
           "                t.checked += k\n",
           "                t.checked += 0\n",
           ("tests/test_axioms.py",)),
    # the Integers order kernel tests < instead of <=
    Mutant("integers-order-kernel-strict", "src/kitealg/pogroup.py",
           "    return all(map(operator.le, x, y))\n",
           "    return all(map(operator.lt, x, y))\n",
           ("tests/test_pogroup.py",)),
    # a product with a non-Integers component takes the Z^k path
    Mutant("zk-path-for-mixed-product", "src/kitealg/pogroup.py",
           "        if all(type(c) is Integers for c in cs):\n",
           "        if any(type(c) is Integers for c in cs):\n",
           ("tests/test_pogroup.py",)),
    # M1 of the mutation probe: commutation holds when only one interval
    # is exhaustive
    Mutant("com-coverage-either-interval", "src/kitealg/riesz.py",
           "    if not (ea and eb):\n",
           "    if not (ea or eb):\n",
           ("tests/test_riesz.py::"
            "test_com_is_unknown_when_either_interval_is_incomplete",)),
    # M5 of the mutation probe: a holds verdict with one skip keeps its
    # status
    Mutant("holds-with-one-skip", "src/kitealg/verdict.py",
           "        if status is Status.HOLDS and skipped > 0:\n",
           "        if status is Status.HOLDS and skipped > 1:\n",
           ("tests/test_records.py",)),
    # the base-table memo hands back a flipped table un-reversed
    Mutant("flipped-base-table-not-reversed", "src/kitealg/riesz.py",
           "    return c22, c21, c12, c11, side\n",
           "    return c11, c12, c21, c22, side\n",
           ("tests/test_riesz.py::"
            "test_base_table_memo_keys_on_flip_level_and_window",)),
    # RDP1 and RDP2 base tables are searched, and memoised, as RDP: the
    # level drops out of the search and of the memo key
    Mutant("base-tables-lose-the-level", "src/kitealg/riesz.py",
           "    lv = level if level in (RdpLevel.RDP1, RdpLevel.RDP2) "
           "else RdpLevel.RDP\n",
           "    lv = RdpLevel.RDP\n",
           ("tests/test_riesz.py::"
            "test_constructive_witnesses_match_mirror_reference",)),
    # a constructed table is returned without its c12 + c22 = y2 check
    Mutant("sum-equation-unchecked", "src/kitealg/riesz.py",
           "            or add(table.c11, table.c21) is not y1\n"
           "            or add(table.c12, table.c22) is not y2):\n",
           "            or add(table.c11, table.c21) is not y1):\n",
           ("tests/test_riesz.py::"
            "test_constructive_table_is_validated_against_each_sum_equation",)),
    # the witness window ignores the operands' norms
    Mutant("wide-window-ignores-norms", "src/kitealg/riesz.py",
           "    return _window(max(2, *map(kite.norm, elems)))\n",
           "    return _window(2)\n",
           ("tests/test_riesz.py::test_wide_window_covers_every_operand_norm",)),
    # rdiff solves with the kite's own base product, not the reversed one
    Mutant("solve-without-reversed-product", "src/kitealg/kite.py",
           "            mul = lambda x, y, m=mul: m(y, x)"
           "  # the reversed base product\n",
           "            mul = lambda x, y, m=mul: m(x, y)"
           "  # the reversed base product\n",
           ("tests/test_axioms.py::test_pea_axioms_hold_on_kites",)),
    # rdiff solves without trading lam and rho
    Mutant("solve-without-twist-swap", "src/kitealg/kite.py",
           "            rho_inv, lam = self.lam_inv, self.rho\n",
           "            rho_inv, lam = self.rho_inv, self.lam\n",
           ("tests/test_axioms.py::test_pea_axioms_hold_on_kites",)),
    # a twisted product re-indexes the left factor through lam^m2, not
    # lam^-m2
    Mutant("twisted-product-wrong-power", "src/kitealg/pogroup.py",
           "pairs = self._pairs[m1, m2] = list(zip(perms.power(self.lam, -m2),",
           "pairs = self._pairs[m1, m2] = list(zip(perms.power(self.lam, m2),",
           ("tests/test_pogroup.py::"
            "test_twisted_products_match_the_per_coordinate_formula",)),
    # the index pairs of (m1, m2) are kept under (m2, m1), so the product
    # of (m2, m1) later reads them
    Mutant("twisted-pair-table-swapped-key", "src/kitealg/pogroup.py",
           "pairs = self._pairs[m1, m2] = list(",
           "pairs = self._pairs[m2, m1] = list(",
           ("tests/test_pogroup.py::"
            "test_twisted_products_match_the_per_coordinate_formula",)),
    # a kite's infinitesimality test forgets that x alone (k < 2) is
    # always defined, so an upper fails it at k = 1
    Mutant("kite-multiples-without-small-k", "src/kitealg/kite.py",
           "        return k < 2 or x.tag == LOWER\n",
           "        return x.tag == LOWER\n",
           ("tests/test_axioms.py::"
            "test_multiples_defined_matches_the_add_chain",)),
    # the uppers, not the lowers, are taken for the infinitesimals
    Mutant("kite-multiples-upper-tag", "src/kitealg/kite.py",
           "        return k < 2 or x.tag == LOWER\n",
           "        return k < 2 or x.tag == UPPER\n",
           ("tests/test_axioms.py::"
            "test_multiples_defined_matches_the_add_chain",)),
    # every member of a round is marked done before any is solved, so no
    # round adjoins an image
    Mutant("normal-ideal-round-marked-done-first", "src/kitealg/ideals.py",
           "        done, members = members, set(current.elements)\n",
           "        done = members = set(current.elements)\n",
           ("tests/test_ideals.py::"
            "test_semi_naive_rounds_match_the_naive_reference",)),
    # the closed-form companions are used off abelian bases too
    Mutant("closed-form-without-abelian-guard", "src/kitealg/ideals.py",
           "    return isinstance(P, Kite) and P.base.is_abelian\n",
           "    return isinstance(P, Kite)\n",
           ("tests/test_ideals.py::"
            "test_closed_form_normality_matches_the_per_instance_solve"
            "[TwistedLex-1]",)),
    # a lower x against a lower member counts one hit, not two
    Mutant("closed-form-lower-x-one-hit", "src/kitealg/ideals.py",
           "                t.checked += 2  # both sums defined, both z are "
           "y itself\n",
           "                t.checked += 1  # both sums defined, both z are "
           "y itself\n",
           ("tests/test_ideals.py::"
            "test_closed_form_normality_matches_the_per_instance_solve"
            "[Integers-1]",)),
    # the left double complement stands in for the right one, so a lower
    # member's right closed-form image is lost
    Mutant("generated-ideal-left-double-complement-only",
           "src/kitealg/ideals.py",
           "            P.complement_right(P.complement_right(m)))\n",
           "            P.complement_left(P.complement_left(m)))\n",
           ("tests/test_ideals.py::"
            "test_semi_naive_rounds_match_the_naive_reference",)),
    # a companion outside the window counts as a hit, not a skip
    Mutant("normality-skip-counted-as-hit", "src/kitealg/ideals.py",
           '                    t.skip(f"{side} companion outside the window")\n',
           "                    t.hit()\n",
           ("tests/test_ideals.py::test_companion_outside_the_window_is_a_skip",)),
    # join picks the lower of a lower and an upper
    Mutant("kite-join-wrong-tag", "src/kitealg/kite.py",
           "        return self._bound(x, y, UPPER, self.base.join_values)\n",
           "        return self._bound(x, y, LOWER, self.base.join_values)\n",
           ("tests/test_kite.py::test_meet_join_goldens",)),
    # the positive cone is cut to the cap before it is filtered
    Mutant("cone-cut-before-filtering", "src/kitealg/pogroup.py",
           "    return [x for x in enumerate_window(group, w.uncapped())\n",
           "    return [x for x in enumerate_window(group, w)\n",
           ("tests/test_pogroup.py::test_integer_window_contents",)),
    # the positive cone ignores the cap
    Mutant("cone-ignores-cap", "src/kitealg/pogroup.py",
           "            if leq(e, x)][: w.cap]\n",
           "            if leq(e, x)]\n",
           ("tests/test_riesz.py::"
            "test_positive_cone_sample_honours_the_cap",)),
    # the cone's rdiff keeps a difference that leaves the cone
    Mutant("cone-rdiff-without-positivity", "src/kitealg/pogroup.py",
           "        c = g.mul_values(g.inv_value(a), b)\n"
           "        return c if g.leq_values(self.zero, c) else None\n",
           "        c = g.mul_values(g.inv_value(a), b)\n"
           "        return c\n",
           ("tests/test_riesz.py::"
            "test_positive_cone_differences_stay_in_the_cone",)),
    # an interval algebra's sum ignores the unit bound
    Mutant("interval-add-ignores-unit", "src/kitealg/representations.py",
           "        return s if self.group.leq_values(s, self.unit) else None\n",
           "        return s\n",
           ("tests/test_representations.py::test_integer_chain_carrier",)),
    # a refinement search that ran out of window counts as a table found
    Mutant("table-search-skip-counted-as-hit", "src/kitealg/riesz.py",
           '                t.skip("table search window-bounded")\n',
           "                t.hit()\n",
           ("tests/test_riesz.py::"
            "test_window_bounded_table_search_is_a_skip",)),
    # an RDP0 split search that ran out of window counts as a split found
    Mutant("split-search-skip-counted-as-hit", "src/kitealg/riesz.py",
           '                t.skip("split search window-bounded")\n',
           "                t.hit()\n",
           ("tests/test_riesz.py::"
            "test_window_bounded_split_search_is_a_skip",)),
    # the b2 that no in-sample candidate reaches count as hits
    Mutant("rip-block-misses-counted-as-hits", "src/kitealg/riesz.py",
           "                misses = above & ~reach\n",
           "                misses = 0\n",
           ("tests/test_riesz.py::test_rip_loop_matches_reference",)),
    # a failing block's hits at lower b2 indices are not counted
    Mutant("rip-hits-before-first-miss-dropped", "src/kitealg/riesz.py",
           "                    t.checked += (above & ((1 << m) - 1))"
           ".bit_count()\n",
           "                    pass\n",
           ("tests/test_riesz.py::test_rip_loop_matches_reference",)),
    # a miss is not tried against the candidates outside the sample
    Mutant("rip-outside-candidates-ignored", "src/kitealg/riesz.py",
           "                        if any(leq(a2, c) and leq(c, pos[m]) "
           "for c in outside):\n",
           "                        if False:\n",
           ("tests/test_riesz.py::test_rip_loop_matches_reference",)),
    # a bare group's arguments reach the search unchecked
    Mutant("bare-group-values-unchecked", "src/kitealg/riesz.py",
           "        return PositiveCone(obj), "
           "[obj.check_value(v) for v in values]\n",
           "        return PositiveCone(obj), values\n",
           ("tests/test_riesz.py::"
            "test_bare_group_arguments_are_checked_raw_values",)),
    # a group's structural key is its kind, so groups of one kind that
    # differ in a parameter compare equal
    Mutant("group-key-is-kind", "src/kitealg/pogroup.py",
           "        self.key = json.dumps(self.describe(), sort_keys=True)\n",
           "        self.key = self.kind\n",
           ("tests/test_pogroup.py::"
            "test_groups_differing_in_one_parameter_are_unequal",)),
    # a refinement search claims its candidate interval was exhaustive
    Mutant("refinement-coverage-always-true", "src/kitealg/riesz.py",
           "    cands, exhaustive = ctx.interval(ctx.zero, a1, w)\n",
           "    cands, exhaustive = ctx.interval(ctx.zero, a1, w)[0], True\n",
           ("tests/test_riesz.py::test_refinement_table_golden",)),
    # own keeps any element of an equal shape, so a kite reads its rows at
    # another kite's ids
    Mutant("own-by-shape-not-kite", "src/kitealg/kite.py",
           "        if x.kite is self:\n            return x\n",
           "        if x.shape is self.shape:\n            return x\n",
           ("tests/test_kite.py::"
            "test_kites_sharing_one_shape_keep_separate_tables",)),
    # a sweep row renders no payload at all, the classification included
    Mutant("sweep-row-drops-classification", "src/kitealg/cli.py",
           '                 if payloads or k == "classification"})\n',
           "                 if payloads})\n",
           ("tests/test_cli.py::"
            "test_sweep_row_matches_the_check_report_of_its_cell",)),
    # the map registry is read and parsed again on every lookup
    Mutant("registry-read-per-lookup", "src/kitealg/representations.py",
           "@functools.cache\ndef _registry() -> dict:\n",
           "def _registry() -> dict:\n",
           ("tests/test_representations.py::"
            "test_stored_mapspec_reads_the_registry_once",)),
    # a sweep cell forks its check units, so forked cells fork again
    Mutant("sweep-cell-forks-its-units", "src/kitealg/cli.py",
           "    if payloads:\n        results = _map_forked(",
           "    if True:\n        results = _map_forked(",
           ("tests/test_cli.py::"
            "test_sweep_report_is_the_same_for_any_cpu_count",)),
    # check computes every unit of a token in one process, whatever the
    # number of CPUs
    Mutant("check-never-forks", "src/kitealg/cli.py",
           "    if payloads:\n        results = _map_forked(",
           "    if False:\n        results = _map_forked(",
           ("tests/test_cli.py::"
            "test_check_report_is_the_same_for_any_cpu_count",)),
    # the parent raises the first failure of its own share, not the one of
    # the lowest cell
    Mutant("fork-parent-share-raises", "src/kitealg/cli.py",
           "        except Exception:\n            break\n",
           "        except Exception:\n            raise\n",
           ("tests/test_cli.py::"
            "test_sweep_worker_usage_error_exits_64_like_the_serial_loop",)),
    # the fork mapper joins the shares end to end instead of interleaving
    # them back into cell order
    Mutant("fork-rows-contiguous", "src/kitealg/cli.py",
           "    for start, share in enumerate(shares):\n"
           "        out[start:start + k * len(share):k] = share\n",
           "    out = [r for share in shares for r in share]\n",
           ("tests/test_cli.py::"
            "test_sweep_report_is_the_same_for_any_cpu_count",)),
    # the cells that did not come back are left out instead of computed
    # again by the parent
    Mutant("fork-missing-cells-kept", "src/kitealg/cli.py",
           "    return [fn(x) if r is missing else r "
           "for x, r in zip(items, out)]\n",
           "    return out\n",
           ("tests/test_cli.py::"
            "test_sweep_cells_of_a_worker_that_sends_nothing_are_computed_again",)),
    # a worker that sends nothing fails the sweep
    Mutant("fork-silent-worker-fails", "src/kitealg/cli.py",
           "                except ValueError:  # nothing sent, or cut off\n"
           "                    shares.append([])\n",
           "                except ValueError:  # nothing sent, or cut off\n"
           "                    raise\n",
           ("tests/test_cli.py::"
            "test_sweep_cells_of_a_worker_that_sends_nothing_are_computed_again",)),
    # a sweep without checks forks too
    Mutant("fork-without-checks", "src/kitealg/cli.py",
           "    if cfg.checks:\n        rows = _map_forked(",
           "    if True:\n        rows = _map_forked(",
           ("tests/test_cli.py::"
            "test_sweep_without_checks_or_with_one_cpu_never_forks",)),
    # the fork mapper leaves its children unreaped
    Mutant("fork-without-waitpid", "src/kitealg/cli.py",
           "            os.waitpid(pid, 0)\n",
           "            pass\n",
           ("tests/test_cli.py::"
            "test_sweep_report_is_the_same_for_any_cpu_count",)),
    # show builds its kite and carrier before it checks the budget
    Mutant("show-budget-after-carrier", "src/kitealg/cli.py",
           '    n = cfg.shape.get("n")\n',
           "    build_kite(cfg).elements(Window(cfg.height, cfg.cap))\n"
           '    n = cfg.shape.get("n")\n',
           ("tests/test_cli.py::"
            "test_show_budget_refused_before_any_element_is_built",)),
    # show admits any n whose carrier is small
    Mutant("show-ignores-n", "src/kitealg/cli.py",
           "            n, cfg.show_budget,\n",
           "            0, cfg.show_budget,\n",
           ("tests/test_cli.py::"
            "test_show_refuses_an_n_over_the_budget_before_the_kite_is_built",)),
    # show counts its carrier without the cap
    Mutant("show-count-ignores-cap", "src/kitealg/cli.py",
           "            min(size, cfg.cap or size), cfg.show_budget,\n",
           "            size, cfg.show_budget,\n",
           ("tests/test_cli.py::test_show_budget_counts_the_capped_carrier",)),
    # a refusal prints a count past the bound as if it were exact
    Mutant("refusal-prints-the-raw-count", "src/kitealg/cli.py",
           '        shown = count if count <= bound else f"more than {bound}"\n',
           "        shown = count\n",
           ("tests/test_cli.py::test_huge_sweep_grid_is_refused_at_once",)),
    # a count goes on past the bound
    Mutant("count-past-the-bound", "src/kitealg/cli.py",
           "        if out > bound:\n            break\n",
           "        if out > bound:\n            pass\n",
           ("tests/test_cli.py::"
            "test_count_stops_at_the_first_product_past_the_bound",)),
    # the program leaves without flushing stdout, so a report still in
    # the buffer is lost
    Mutant("program-exits-before-stdout-flush", "src/kitealg/cli.py",
           "        code = main()\n        sys.stdout.flush()\n",
           "        code = main()\n",
           ("tests/test_cli.py::test_program_prints_what_main_prints",)),
    # the program exits 0 whatever main returned
    Mutant("program-exits-0", "src/kitealg/cli.py",
           "    os._exit(code)\n",
           "    os._exit(0)\n",
           ("tests/test_cli.py::test_module_entry_point_runs",)),
    # a failed write is swallowed, so a lost report that fits the stdout
    # buffer exits 0, and a larger one exits 1
    Mutant("program-swallows-flush-error", "src/kitealg/cli.py",
           "        code = 120\n",
           "        pass\n",
           ("tests/test_cli.py::test_closed_stdout_is_an_error_exit",)),
    # a config file's checks are read whatever their type
    Mutant("checks-of-any-type", "src/kitealg/cli.py",
           "    _expect(isinstance(cfg.checks, (list, tuple)),\n",
           "    _expect(True,\n",
           ("tests/test_cli.py::test_malformed_config_file_values_exit_64",)),
    # a capped target element that no window element maps to counts as
    # checked
    Mutant("iso-unreached-target-counted-as-hit",
           "src/kitealg/representations.py",
           '            t.skip("target window element not reached")\n',
           "            t.hit()\n",
           ("tests/test_cli.py::"
            "test_capped_perfect_representation_skips_an_unreached_target",)),
    # a map spec's tables are only sorted and compared, so booleans pass
    # for indices
    Mutant("mapspec-tables-without-check-perm",
           "src/kitealg/representations.py",
           "        tau_lower, tau_upper = pg.check_perms(\n"
           '            len(tau_lower), "map spec index table", tau_lower, '
           "tau_upper)\n",
           "        tau_lower, tau_upper = tuple(tau_lower), tuple(tau_upper)\n"
           "        for tau in (tau_lower, tau_upper):\n"
           "            if sorted(tau) != list(range(len(tau))):\n"
           '                raise UsageError("index tables must be '
           'permutations")\n',
           ("tests/test_representations.py::test_mapspec_validation",)),
    # a group's own operations take their raw arguments unchecked
    Mutant("group-ops-unchecked", "src/kitealg/pogroup.py",
           "        return self.check_value(value)\n",
           "        return value\n",
           ("tests/test_pogroup.py::"
            "test_ops_reject_elements_of_another_group_kind",
            "tests/test_representations.py::"
            "test_unit_is_a_checked_raw_value")),
    # a twist size that is a bool passes for an int
    Mutant("check-perms-admits-bool-n", "src/kitealg/pogroup.py",
           "    if type(n) is not int or n < 0:\n",
           "    if not isinstance(n, int) or n < 0:\n",
           ("tests/test_pogroup.py::"
            "test_twist_size_must_be_a_non_negative_int",)),
    # a kite shape lets check_perm's ValueError through on a malformed
    # twist
    Mutant("kite-shape-raises-value-error", "src/kitealg/kite.py",
           '        lam, rho = check_perms(n, "kite shape twist", lam, rho)\n',
           "        lam, rho = (tuple(perms.check_perm(p, n)) "
           "for p in (lam, rho))\n",
           ("tests/test_kite.py::test_constructor_validation",)),
    # the perfect representation verifies a map other than the
    # construction's own
    Mutant("perfect-representation-reversed-upper-map",
           "src/kitealg/representations.py",
           "    spec = MapSpec(ident, ident)\n",
           "    spec = MapSpec(ident, ident[::-1])\n",
           ("tests/test_golden.py",
            "tests/test_acceptance.py::"
            "test_criterion_07_interval_representations")),
    # a target that no map spec maps into gives None images instead of an
    # error
    Mutant("mapspec-apply-none-for-unsupported-target",
           "src/kitealg/representations.py",
           '        raise UsageError("a map spec maps only into a kite or an '
           'interval "\n'
           '                         "of a TwistedLex group (of Z at n = 0)")\n',
           "        return None\n",
           ("tests/test_representations.py::"
            "test_a_target_without_images_is_a_usage_error",)),
    # PMV.A8 compares its one term with itself, not with x, so it always
    # holds
    Mutant("pmv-a8-anchor-dropped", "src/kitealg/axioms.py",
           '                        "right negation does not undo left '
           'negation",\n'
           "                        anchor=lambda x: x)\n",
           '                        "right negation does not undo left '
           'negation")\n',
           ("tests/test_axioms.py::test_pmv_laws_match_the_plain_loops",)),
    # ldiff and rdiff read and fill one memo, so each answers the other's
    # stored results
    Mutant("diffs-share-one-memo", "src/kitealg/kite.py",
           "        row = (self._rdiff_rows if flip else self._ldiff_rows)"
           "[b.id]\n",
           "        row = self._ldiff_rows[b.id]\n",
           ("tests/test_kite.py::"
            "test_memoised_operations_match_plain_tuple_reference",)),
    # a map spec re-indexes an element of another arity, or into a kite of
    # another n, instead of refusing it
    Mutant("mapspec-apply-without-arity-check",
           "src/kitealg/representations.py",
           "        if len(x.coords) != n or isinstance(target, Kite) "
           "and target.n != n:\n",
           "        if False:\n",
           ("tests/test_representations.py::"
            "test_a_map_spec_of_another_arity_is_a_usage_error",)),
]


def pytest_copy(tests, path: str = "", text: str = "") -> tuple[int, str]:
    """Run pytest on tests in a fresh copy of the repository in which the
    file at path, when given, holds text; (exit code, last output line)."""
    with tempfile.TemporaryDirectory(prefix="kitealg-mutant-") as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if path:
            (tmp / path).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode, f"pytest exit {proc.returncode}: {last}"


def run(m: Mutant) -> tuple[str, str]:
    """(outcome, detail): outcome is killed, survived or error."""
    text = (ROOT / m.path).read_text()
    if text.count(m.old) != 1:
        return "error", (f"old text occurs {text.count(m.old)} times in "
                         f"{m.path}; update the mutant")
    code, detail = pytest_copy(m.tests, m.path, text.replace(m.old, m.new))
    # pytest exits 1 when a test failed, 0 when all passed
    return {0: "survived", 1: "killed"}.get(code, "error"), detail


def main() -> int:
    # a mutant only counts as killed by tests that pass without it
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, detail = pytest_copy(tests)
    print(f"{'baseline' if code == 0 else 'error':8} unmutated copy: {detail}",
          flush=True)
    if code != 0:
        return 1
    bad = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        outcome, detail = run(m)
        bad += outcome != "killed"
        print(f"{outcome:8} {m.name} ({time.perf_counter() - t0:.1f} s) "
              f"{detail}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
