"""Energy model tests, including the Figure 1 calibration."""

import pytest

from repro.nvm.energy import EnergyModel


class TestEnergyModel:
    def setup_method(self):
        self.model = EnergyModel()

    def test_write_energy_monotone_in_flips(self):
        low = self.model.write_energy(256, 100, 4)
        high = self.model.write_energy(256, 2000, 4)
        assert high > low

    def test_write_energy_monotone_in_lines(self):
        few = self.model.write_energy(256, 500, 1)
        many = self.model.write_energy(256, 500, 4)
        assert many > few

    def test_aux_bits_cost_like_data_bits(self):
        base = self.model.write_energy(64, 100, 1)
        with_aux = self.model.write_energy(64, 100, 1, n_aux_bits=10)
        assert with_aux == pytest.approx(base + 10 * self.model.flip_energy_pj)

    def test_figure1_calibration_56_percent_saving(self):
        """The full Figure 1 round — 3 reads (tx read + two RBW reads), an
        undo-log write of the 256 B old content (~50% flips over stale log
        bytes), and the data write — saves ~56% at x=0 vs x=100."""

        def round_energy(data_flips: int, data_lines: int) -> float:
            reads = 3 * self.model.read_energy(256)
            log_write = self.model.write_energy(256, 1024, 4)
            data_write = self.model.write_energy(256, data_flips, data_lines)
            return reads + log_write + data_write

        identical = round_energy(0, 0)
        all_different = round_energy(2048, 4)
        saving = 1.0 - identical / all_different
        assert 0.50 <= saving <= 0.60

    def test_figure1_intermediate_point_is_monotone(self):
        """Energy grows monotonically along the Figure 1 sweep."""
        energies = [
            self.model.write_energy(256, flips, 4 if flips else 0)
            for flips in (0, 512, 1024, 1536, 2048)
        ]
        assert energies == sorted(energies)

    def test_read_energy_scales_with_size(self):
        assert self.model.read_energy(256) > self.model.read_energy(64)

    def test_zero_byte_operations_raise(self):
        with pytest.raises(ValueError):
            self.model.write_energy(0, 0, 0)
        with pytest.raises(ValueError):
            self.model.read_energy(0)

    def test_pcm_bit_cost_matches_paper_constant(self):
        """The paper cites ~50 pJ per flipped PCM bit (§1)."""
        assert self.model.flip_energy_pj == pytest.approx(50.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            self.model.flip_energy_pj = 1.0
