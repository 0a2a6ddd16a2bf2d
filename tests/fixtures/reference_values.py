"""Frozen reference constants; regenerate with generate_reference_values.py.

The values are frozen: generate_reference_values.py reproduces each of
them within 4e-15 relative, not bit for bit (see its docstring).
"""

# objective of the baseline scenario under constant controls u1 = u2 = 0.1,
# from scipy RK45 (rtol=atol=1e-12) + trapezoid on 1e6+1 nodes
CONSTANT_CONTROL_OBJECTIVE = 225.29576514400839

# terminal-costate residual of one coupled run from psi0 = (0, 0)
RESIDUAL_AT_ZERO_START = (-2070.512101564032, 13.000847966016904)

# converged shooting objective, cross-validated against the
# forward-backward solver (relative gap 3.169e-10)
SHOOTING_OBJECTIVE = 14.033988394976655
