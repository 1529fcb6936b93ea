"""Walk through the cell physics: polarization loop, threshold window,
transfer curves.

Run:  python3 demos/demo_hysteresis_and_device.py
"""

from fefetsim import device, ferro
from fefetsim.config import load_config, make_device, make_ferro


def main():
    cfg, _ = load_config()
    fe = make_ferro(cfg)
    dev = make_device(cfg)

    print("== polarization loop ==")
    pts = ferro.trace_loop(fe, max(cfg.v_w1, 2.0 * cfg.vc_program), 200)
    p_max = max(p for _, p in pts)
    p_min = min(p for _, p in pts)
    print(f"sweep amplitude {max(cfg.v_w1, 2 * cfg.vc_program):.1f} V -> "
          f"P in [{p_min:+.3f}, {p_max:+.3f}] C/m^2 (Ps = {fe.ps})")

    state = ferro.positive_saturation(fe)
    state = ferro.settle(fe, state)
    print(f"remanence after +saturation: {state.p:+.4f} (Pr = {fe.pr})")

    print("\n== threshold window ==")
    one = device.write_cell(dev, fe, ferro.negative_saturation(fe),
                            cfg.v_w1, cfg.t_pulse)
    zero = device.write_cell(dev, fe, one, cfg.v_w0, cfg.t_pulse)
    vt1 = device.cell_vt(dev, fe, one)
    vt0 = device.cell_vt(dev, fe, zero)
    print(f"vt('1') = {vt1:.3f} V   vt('0') = {vt0:.3f} V   "
          f"window = {vt0 - vt1:.3f} V")

    print("\n== read currents at Vwl = Vsl = 1 V ==")
    i1 = device.read_current(dev, fe, one, cfg.v_wl, cfg.v_sl)
    i0 = device.read_current(dev, fe, zero, cfg.v_wl, cfg.v_sl)
    print(f"I('1') = {i1:.3e} A   I('0') = {i0:.3e} A   "
          f"on/off = {i1 / i0:.0f}")

    print("\n== half-select stress on the '0' cell ==")
    vt_before = device.cell_vt(dev, fe, zero)
    # one pulse moves it, further identical pulses retrace the same loop
    zero = device.write_cell(dev, fe, zero, cfg.v_w1 / 2.0, cfg.t_pulse)
    vt_one_pulse = device.cell_vt(dev, fe, zero)
    for _ in range(99):
        zero = device.write_cell(dev, fe, zero, cfg.v_w1 / 2.0, cfg.t_pulse)
    vt_hundred = device.cell_vt(dev, fe, zero)
    print(f"vt drift: first pulse {vt_before - vt_one_pulse:+.3f} V, "
          f"next 99 pulses {vt_one_pulse - vt_hundred:+.2e} V "
          f"(closed-loop retrace)")


if __name__ == "__main__":
    main()
