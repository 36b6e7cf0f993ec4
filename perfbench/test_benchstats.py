"""Unit tests of benchstats (run: python3 -m unittest test_benchstats, from perfbench/)."""

import unittest

import benchstats


class RelativeIqrTest(unittest.TestCase):
    def test_ten_values_by_hand(self):
        # Exclusive method: quartiles at positions (n+1)p = 2.75 and 8.25 of
        # 1..10, so Q1 = 2.75, Q3 = 8.25 and the median 5.5.
        self.assertAlmostEqual(benchstats.relative_iqr(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)

    def test_scale_free(self):
        values = [9.1, 2.5, 7.7, 3.3, 5.0, 6.2, 1.4, 8.8, 4.1, 0.6]
        self.assertAlmostEqual(benchstats.relative_iqr(values),
                               benchstats.relative_iqr([v * 1000.0 for v in values]))

    def test_constant_series_has_no_spread(self):
        self.assertEqual(benchstats.relative_iqr([2.0, 2.0, 2.0]), 0.0)

    def test_one_value_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.relative_iqr([1.0])


class WorseningTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(benchstats.worsening(1.0, 1.1, "lower"), 0.1)
        self.assertAlmostEqual(benchstats.worsening(1.0, 1.1, "higher"), -0.1)
        self.assertAlmostEqual(benchstats.worsening(100.0, 80.0, "higher"), 0.2)

    def test_bad_direction(self):
        with self.assertRaises(ValueError):
            benchstats.worsening(1.0, 1.0, "sideways")


if __name__ == "__main__":
    unittest.main()
