"""Exact local factors, Plancherel densities and the spectral-limit check."""

__version__ = "0.1.0"

from .field import (LocalFieldSpec, QuadraticCharacter, SquareClass,
                    gamma_star_trivial, gamma_trivial, square_class, valuation)
from .spectral import GeometricFactor, SpectralFunction, turn
from .wdrep import WDAtom, WDRep, parse_rep_text
from .tempered import (OrthTriple, TempPoint, appendix_constants,
                       formal_degree_rhs, hii_rhs, orth_triple_of,
                       plancherel_density, plancherel_density_chi)
from .limitcheck import (ConstantPhi, GaussianPhi, QuadConfig, TrigPhi,
                         singular_exponent, verify)
from .forms import (BilForm, OrbitLabel, build_odd_so, b_of_g,
                    char_poly_twisted, classify_sharp, correspond_char_poly,
                    disc_twisted, gamma_t_representative, in_g_prime,
                    m_tilde_of, weyl_discriminant_twisted)

__all__ = [
    "LocalFieldSpec", "QuadraticCharacter", "SquareClass",
    "gamma_star_trivial", "gamma_trivial", "square_class", "valuation",
    "GeometricFactor", "SpectralFunction", "turn",
    "WDAtom", "WDRep", "parse_rep_text",
    "OrthTriple", "TempPoint", "appendix_constants", "formal_degree_rhs",
    "hii_rhs", "orth_triple_of", "plancherel_density",
    "plancherel_density_chi",
    "ConstantPhi", "GaussianPhi", "QuadConfig", "TrigPhi",
    "singular_exponent", "verify",
    "BilForm", "OrbitLabel", "build_odd_so", "b_of_g", "char_poly_twisted",
    "classify_sharp", "correspond_char_poly", "disc_twisted",
    "gamma_t_representative", "in_g_prime", "m_tilde_of",
    "weyl_discriminant_twisted",
]
