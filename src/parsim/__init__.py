"""parsim: detection limits for photoacoustic Raman sensing of aerosols.

The package models one detection chain end to end: stimulated Raman
pumping of marker molecules inside a micron-scale particle, collisional
transfer of the deposited heat into the surrounding gas, the acoustic
response of a closed cylindrical cell, the thermodynamic pressure noise
of the readout mode, and the resulting minimum detectable particle
density.  ``oracle`` integrates the stochastic mode dynamics in the time
domain to keep the analytic spectra honest, and ``cli`` exposes it all
as a command line tool.

Unit discipline: SI throughout; every frequency is angular (rad/s)
unless a name says otherwise (``linewidth_hz``).

Import each name from the module that defines it
(``from parsim.detection import min_density``).  ``import parsim`` loads
none of its modules, so a caller loads only what it touches: the scalar
detection chain and the driven oracle run without numpy.
"""

__version__ = "0.1.0"
