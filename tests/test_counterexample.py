from fractions import Fraction as F

import pytest

from cantorlike.counterexample import tail_measure, tail_table, tail_table_csv, tail_table_rows
from cantorlike import families as families_module
from cantorlike.families import (
    DepthCapError,
    Power,
    Proportional,
    limit_measure,
    measure_at_depth,
)
from cantorlike.sets import (
    OpenInterval,
    iterate,
    removed_by_generation,
)

VOLTERRA = Power(4)


class TestRemovedSequence:
    # The sequence E_1, E_2, ... is removed_by_generation read generation-major.
    def test_first_generation(self):
        assert removed_by_generation(VOLTERRA, 1) == [[OpenInterval(F(3, 8), F(5, 8))]]

    def test_three_generations(self):
        gens = removed_by_generation(VOLTERRA, 3)
        assert [len(gen) for gen in gens] == [1, 2, 4]
        assert gens[2][0] == OpenInterval(F(9, 128), F(11, 128))

    def test_middle_thirds_power_form(self):
        assert removed_by_generation(Power(3), 2) == [
            [OpenInterval(F(1, 3), F(2, 3))],
            [OpenInterval(F(1, 9), F(2, 9)), OpenInterval(F(7, 9), F(8, 9))],
        ]

    def test_entries_disjoint_from_later_stages(self):
        entries = [e for gen in removed_by_generation(VOLTERRA, 4) for e in gen]
        for g in (4, 5, 6):
            stage = iterate(VOLTERRA, g)
            for e in entries:
                assert not stage.contains_point((e.a + e.b) / 2)

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError):
            removed_by_generation(VOLTERRA, -1)

    def test_depth_cap_bounds_the_generations(self):
        gens = removed_by_generation(Power(2), 24)
        assert sum(len(gen) for gen in gens) == 3  # past the fixpoint
        with pytest.raises(DepthCapError):
            removed_by_generation(Power(2), 25)

    def test_stage_size_cap_refuses_before_any_gap(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a gap was built")

        # ternary generation 10: 2^10 intervals over 6^10 (26 bits)
        monkeypatch.setattr(families_module, "STAGE_SIZE_CAP", 2**10 * 26 - 1)
        monkeypatch.setattr(OpenInterval, "__init__", forbidden)
        with pytest.raises(DepthCapError, match="exceeds the stage size cap"):
            removed_by_generation(Proportional(F(1, 3)), 10)


class TestTailMeasure:
    def test_total_removed_is_half(self):
        assert tail_measure(VOLTERRA, 0) == F(1, 2)

    def test_after_first_interval(self):
        assert tail_measure(VOLTERRA, 1) == F(1, 4)

    def test_after_first_generation_pair(self):
        assert tail_measure(VOLTERRA, 3) == F(1, 8)

    def test_generation_end_closed_form(self):
        # at the end of generation g the tail is exactly 1/2^(g+1)
        for g in range(1, 11):
            n = 2**g - 1
            assert tail_measure(VOLTERRA, n) == F(1, 2 ** (g + 1))

    def test_strictly_decreasing(self):
        values = [tail_measure(VOLTERRA, n) for n in range(20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_prefix_plus_tail_is_total(self):
        total = 1 - limit_measure(VOLTERRA)
        entries = [e for gen in removed_by_generation(VOLTERRA, 5) for e in gen]
        acc = F(0)
        for n, entry in enumerate(entries, start=1):
            acc += entry.length
            assert acc + tail_measure(VOLTERRA, n) == total

    def test_finite_construction_exhausts(self):
        # the n=2 power family removes exactly three intervals, total length 1
        assert tail_measure(Power(2), 3) == 0
        assert tail_measure(Power(2), 100) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tail_measure(VOLTERRA, -1)
        with pytest.raises(ValueError, match="^n_max must be nonnegative, got -1$"):
            tail_table(VOLTERRA, -1)
        rows = tail_table_rows(VOLTERRA, -1)  # a generator: it refuses on its first row
        with pytest.raises(ValueError, match="^n_max must be nonnegative, got -1$"):
            next(rows)


class TestTailTable:
    def test_rows(self):
        rows = tail_table(VOLTERRA, 3)
        assert rows[0] == (0, F(0), F(1, 2))
        assert rows[1] == (1, F(1, 4), F(1, 4))
        assert rows[3] == (3, F(3, 8), F(1, 8))

    def test_the_size_cap_counts_rows_times_the_widest_cell_bound(self):
        # Rows 0..n_max of Power(4) to n = 2,982,615 reach generation 22, whose
        # reduced cells are at most 45 bits (D_22 has 67): 2,982,616 rows of 45 bits
        # is under 2^27, and one more row is over it.
        assert next(tail_table_rows(VOLTERRA, 2982615)) == "n,sum_removed,tail,tail_decimal\n"
        with pytest.raises(DepthCapError, match="^the tail table to n = 2982616 exceeds the table size cap "
                                                r"of 134217728 \(rows x cell bits\)$"):
            next(tail_table_rows(VOLTERRA, 2982616))
        with pytest.raises(DepthCapError, match="exceeds the table size cap"):
            tail_table(VOLTERRA, 10**12)  # the list form holds its rows: it used to run out of memory

    def test_csv_shape(self):
        text = tail_table_csv(VOLTERRA, 2)
        lines = text.strip().splitlines()
        assert lines[0] == "n,sum_removed,tail,tail_decimal"
        assert lines[1] == "0,0/1,1/2,0.5"
        assert lines[2].startswith("1,1/4,1/4,")

    def test_row_identity_against_stage_measure(self):
        # after the full generation g, removed mass + stage measure == 1
        for g in range(1, 9):
            n = 2**g - 1
            _, acc, _ = tail_table(VOLTERRA, n)[n]
            assert acc + measure_at_depth(VOLTERRA, g) == 1
