"""Belief-function fusion of automatic web-accessibility assessor reports
into per-deficiency-frame indicators.

Each public name lives only in the module that defines it, such as
a11yfuse.engine.score_page; README's module map lists them by module."""
